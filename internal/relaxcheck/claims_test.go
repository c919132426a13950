package relaxcheck

import (
	"fmt"
	"reflect"
	"testing"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/quorum"
)

// TestClaimTablesQuorumIntersection is quorum.Joint's differential
// test. Its oracle is Section 3.1's side condition written out as
// threshold arithmetic: a constraint inv Q op holds among a set of
// rungs only if Initial(inv) + Final(op) > total for every ordered
// pair of them, since clients at different rungs mix their
// assignments. For n = 3…9, TaxiClaims (Joint over each ladder prefix)
// and TaxiRungLevels (Joint over each TaxiAssignments rung alone) must
// equal what the oracle derives, and both tables must be the same at
// every n, since a nil claim table defaults to n = 3. Read as mixed-rung
// claims, TaxiRungLevels["Q1"] must fall to the witness X06's online
// checker finds at runtime.
func TestClaimTablesQuorumIntersection(t *testing.T) {
	lat := core.TaxiSimpleLattice()
	u := lat.Universe
	rels := map[string]quorum.Relation{core.ConstraintQ1: quorum.Q1(), core.ConstraintQ2: quorum.Q2()}
	wantClaims := map[string]lattice.Set{"Q1Q2": u.All(), "Q1": 0, "none": 0}
	wantRungs := map[string]lattice.Set{
		"Q1Q2": u.All(), "Q1": u.Named(core.ConstraintQ1), "Q2": u.Named(core.ConstraintQ2), "none": 0,
	}
	wantQ1 := map[int]string{
		3: "Deq initial 1 @ Q1 + Enq final 2 @ Q1Q2 <= 3",
		4: "Deq initial 2 @ Q1 + Enq final 2 @ Q1Q2 <= 4",
		5: "Deq initial 2 @ Q1 + Enq final 3 @ Q1Q2 <= 5",
		6: "Deq initial 3 @ Q1 + Enq final 3 @ Q1Q2 <= 6",
		7: "Deq initial 3 @ Q1 + Enq final 4 @ Q1Q2 <= 7",
		8: "Deq initial 4 @ Q1 + Enq final 4 @ Q1Q2 <= 8",
		9: "Deq initial 4 @ Q1 + Enq final 5 @ Q1Q2 <= 9",
	}
	for n := 3; n <= 9; n++ {
		ladder := cluster.TaxiLadder(n)
		votes := quorum.TaxiAssignments(n)
		// refute returns a non-intersecting quorum pair for constraint c
		// among the named rungs, or "" when c holds jointly. Every taxi
		// assignment gives each site one vote, so the total weight is n.
		refute := func(rungs []string, c string) string {
			for _, pr := range rels[c].Pairs() {
				for _, ra := range rungs {
					qi, _ := votes[ra].Quorums(pr.Inv)
					for _, rb := range rungs {
						qf, _ := votes[rb].Quorums(pr.Op)
						if qi.Initial+qf.Final <= n {
							return fmt.Sprintf("%s initial %d @ %s + %s final %d @ %s <= %d",
								pr.Inv, qi.Initial, ra, pr.Op, qf.Final, rb, n)
						}
					}
				}
			}
			return ""
		}
		// level is the oracle's lattice element for the named rungs.
		level := func(rungs ...string) lattice.Set {
			var s lattice.Set
			for c := range rels {
				if refute(rungs, c) == "" {
					s |= u.Named(c)
				}
			}
			return s
		}

		claims := TaxiClaims(u, ladder)
		rungLevels := TaxiRungLevels(u, votes)
		if !reflect.DeepEqual(claims, wantClaims) || !reflect.DeepEqual(rungLevels, wantRungs) {
			t.Errorf("n=%d: TaxiClaims = %v, TaxiRungLevels = %v; want %v and %v at every n",
				n, claims, rungLevels, wantClaims, wantRungs)
		}
		var prefix []string
		for _, rung := range ladder {
			prefix = append(prefix, rung.Name)
			if want := level(prefix...); claims[rung.Name] != want {
				t.Errorf("n=%d: TaxiClaims[%s] = %s, oracle over %v says %s",
					n, rung.Name, u.Format(claims[rung.Name]), prefix, u.Format(want))
			}
		}
		for name := range votes {
			if want := level(name); rungLevels[name] != want {
				t.Errorf("n=%d: TaxiRungLevels[%s] = %s, oracle says %s", n, name, u.Format(rungLevels[name]), u.Format(want))
			}
		}

		// The per-rung table read as mixed-rung claims: only its Q1 entry
		// is refuted, by the pair X06's online checker meets at runtime.
		refuted := map[string]string{}
		prefix = prefix[:0]
		for _, rung := range ladder {
			prefix = append(prefix, rung.Name)
			for _, i := range rungLevels[rung.Name].Indexes() {
				if w := refute(prefix, u.Constraint(i).Name); w != "" {
					refuted[rung.Name] = w
				}
			}
		}
		if len(refuted) != 1 || refuted["Q1"] != wantQ1[n] {
			t.Errorf("n=%d: TaxiRungLevels refutations under mixing = %v, want only Q1: %s", n, refuted, wantQ1[n])
		}
	}

	// Explicit quorums are tested set by set. Rows meet columns, so a
	// grid realizes every pair. Assignments of different kinds, or
	// votings over different weights, share no threshold arithmetic, and
	// Joint forces nothing between them: sound, not tight, and no
	// caller mixes them.
	ops := []string{history.NameEnq, history.NameDeq}
	full := quorum.NewRelation(
		quorum.Pair{Inv: history.NameDeq, Op: history.NameDeq}, quorum.Pair{Inv: history.NameDeq, Op: history.NameEnq},
		quorum.Pair{Inv: history.NameEnq, Op: history.NameDeq}, quorum.Pair{Inv: history.NameEnq, Op: history.NameEnq},
	)
	grid, maj := quorum.Grid(3, 3, ops...), quorum.Majority(9, ops...)
	heavy := quorum.NewVoting([]int{2, 1, 1, 1, 1, 1, 1, 1, 1}, map[string]quorum.OpQuorums{
		history.NameEnq: {Initial: 6, Final: 6}, history.NameDeq: {Initial: 6, Final: 6},
	})
	for _, c := range []struct {
		name string
		as   []quorum.Assignment
		want quorum.Relation
	}{
		{"3x3 grid", []quorum.Assignment{grid}, full},
		{"2x3 grid (gridstore)", []quorum.Assignment{quorum.Grid(2, 3, ops...)}, full},
		{"majority", []quorum.Assignment{maj}, full},
		{"heavy voting", []quorum.Assignment{heavy}, full},
		{"grid with majority", []quorum.Assignment{grid, maj}, quorum.NewRelation()},
		{"votings over different weights", []quorum.Assignment{maj, heavy}, quorum.NewRelation()},
		{"no assignments", nil, quorum.NewRelation()},
	} {
		if got := quorum.Joint(c.as...); got.String() != c.want.String() {
			t.Errorf("Joint(%s) = %v, want %v", c.name, got, c.want)
		}
	}
	if got := core.TaxiLevel(u, quorum.Joint(grid)); got != u.All() {
		t.Errorf("TaxiLevel(Joint(3x3 grid)) = %s, want %s", u.Format(got), u.Format(u.All()))
	}

	// What the refutation forfeits is observable: a Q1 violation (the
	// better request 2 unserved while 1 is dequeued) is accepted only
	// below {Q1}, a Q2 violation (1 served twice) only below {Q2}, and a
	// legal priority-order history stays at the top.
	for _, c := range []struct {
		h      history.History
		losing string
	}{
		{history.History{history.Enq(2), history.Enq(1), history.DeqOk(1)}, core.ConstraintQ1},
		{history.History{history.Enq(1), history.DeqOk(1), history.DeqOk(1)}, core.ConstraintQ2},
	} {
		weakest, ok := lat.WeakestAccepting(c.h)
		if !ok {
			t.Fatalf("no lattice element accepts %v", c.h)
		}
		for _, s := range weakest {
			if s.Has(u.Index(c.losing)) {
				t.Errorf("%v: WeakestAccepting includes %s, but the history violates %s", c.h, u.Format(s), c.losing)
			}
		}
	}
	legal := history.History{history.Enq(1), history.Enq(2), history.DeqOk(2), history.DeqOk(1)}
	if weakest, ok := lat.WeakestAccepting(legal); !ok || len(weakest) != 1 || weakest[0] != u.All() {
		t.Errorf("legal priority-order history: WeakestAccepting = %v (ok=%v), want exactly {Q1,Q2}", weakest, ok)
	}
}
