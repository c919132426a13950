package relaxcheck

import (
	"fmt"
	"testing"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/quorum"
)

// TestClaimTablesQuorumIntersection holds the claim tables to Section
// 3.1's side condition: a constraint inv Q op is claimed while the
// weakest client sits at rung r only if Initial(inv) + Final(op) >
// total for every ordered pair of rungs active down to r, since
// clients at different rungs mix their assignments. TaxiClaims must
// hold at every n; TaxiRungLevels["Q1"] must fall to the mixed-rung
// witness X06's online checker finds at runtime.
func TestClaimTablesQuorumIntersection(t *testing.T) {
	lat := core.TaxiSimpleLattice()
	u := lat.Universe
	rels := map[string]quorum.Relation{core.ConstraintQ1: quorum.Q1(), core.ConstraintQ2: quorum.Q2()}
	wantQ1 := map[int]string{
		3: "Deq initial 1 @ Q1 + Enq final 2 @ Q1Q2 <= 3",
		4: "Deq initial 2 @ Q1 + Enq final 2 @ Q1Q2 <= 4",
		5: "Deq initial 2 @ Q1 + Enq final 3 @ Q1Q2 <= 5",
		6: "Deq initial 3 @ Q1 + Enq final 3 @ Q1Q2 <= 6",
		7: "Deq initial 3 @ Q1 + Enq final 4 @ Q1Q2 <= 7",
	}
	for n := 3; n <= 7; n++ {
		ladder := cluster.TaxiLadder(n)
		votes := quorum.TaxiAssignments(n)
		// refute returns a non-intersecting quorum pair for constraint c
		// among the rungs ladder[0..floor], or "" when c holds jointly.
		refute := func(floor int, c string) string {
			for _, pr := range rels[c].Pairs() {
				for _, ra := range ladder[:floor+1] {
					qi, _ := votes[ra.Name].Quorums(string(pr.Inv))
					for _, rb := range ladder[:floor+1] {
						qf, _ := votes[rb.Name].Quorums(string(pr.Op))
						if total := votes[ra.Name].TotalWeight(); qi.Initial+qf.Final <= total {
							return fmt.Sprintf("%s initial %d @ %s + %s final %d @ %s <= %d",
								pr.Inv, qi.Initial, ra.Name, pr.Op, qf.Final, rb.Name, total)
						}
					}
				}
			}
			return ""
		}
		// verdicts maps each refuted rung of a claim table to its witness.
		verdicts := func(claims map[string]lattice.Set) map[string]string {
			if len(claims) != len(ladder) {
				t.Fatalf("n=%d: claim table has %d rungs, ladder has %d", n, len(claims), len(ladder))
			}
			out := map[string]string{}
			for floor, rung := range ladder {
				claimed, ok := claims[rung.Name]
				if !ok {
					t.Fatalf("n=%d: claim table lacks rung %q", n, rung.Name)
				}
				for _, i := range claimed.Indexes() {
					if w := refute(floor, u.Constraint(i).Name); w != "" {
						out[rung.Name] = w
					}
				}
			}
			return out
		}
		if got := verdicts(TaxiClaims(u)); len(got) != 0 {
			t.Errorf("n=%d: TaxiClaims refuted: %v", n, got)
		}
		got := verdicts(TaxiRungLevels(u))
		if len(got) != 1 || got["Q1"] != wantQ1[n] {
			t.Errorf("n=%d: TaxiRungLevels refutations = %v, want only Q1: %s", n, got, wantQ1[n])
		}
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
