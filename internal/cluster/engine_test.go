package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/obs/trace"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/specs"
	"relaxlattice/internal/value"
)

// fakeSites is a scripted SiteAccess: the listed sites answer step 1
// (with empty logs), the listed sites acknowledge step 3, and every
// Record call is remembered.
type fakeSites struct {
	answers  []int
	acks     map[int]bool
	recorded [][]int      // the sites argument of each Record
	sent     []quorum.Log // the updated view of each Record
}

func (f *fakeSites) Read() []SiteLog {
	out := make([]SiteLog, len(f.answers))
	for i, s := range f.answers {
		out[i] = SiteLog{Site: s}
	}
	return out
}

func (f *fakeSites) Record(sites []int, updated quorum.Log, _ trace.SpanID) []int {
	f.recorded = append(f.recorded, append([]int(nil), sites...))
	f.sent = append(f.sent, updated)
	var acked []int
	for _, s := range sites {
		if f.acks[s] {
			acked = append(acked, s)
		}
	}
	return acked
}

type auditLog struct{ ops history.History }

func (a *auditLog) ObserveOp(op history.Op) { a.ops = append(a.ops, op) }

// TestEngineOutcomeTable drives the engine over a fake site accessor
// through every combination of step-1 answers, step-3 acks, and gating
// mode on five majority-quorum sites. The lost-ack rows are the ones no
// simulated cluster can produce: its sites never drop an ack.
func TestEngineOutcomeTable(t *testing.T) {
	const n = 5
	gate := quorum.Majority(n, history.NameEnq, history.NameDeq)
	answerSets := map[string][]int{"none": nil, "two": {1, 3}, "all": {0, 1, 2, 3, 4}}
	// Which of the step-1 responders acknowledge step 3: "some" is one
	// site short of whatever would make a quorum of the responders.
	ackSets := map[string]map[string][]int{
		"none": {"none": nil, "some": nil, "all": nil},
		"two":  {"none": nil, "some": {3}, "all": {1, 3}},
		"all":  {"none": nil, "some": {0, 4}, "all": {0, 1, 2, 3, 4}},
	}
	type mode struct {
		label   string
		degrade bool
	}
	modes := map[string]mode{"base": {}, "rung": {label: "Q1Q2"}, "degrade": {degrade: true}}

	rows := []struct {
		answers, acks, mode string
		want                error // nil: the operation completes
	}{
		{"none", "none", "base", ErrUnavailable},
		{"none", "none", "rung", ErrUnavailable},
		{"none", "none", "degrade", ErrUnavailable},
		{"none", "some", "base", ErrUnavailable},
		{"none", "some", "rung", ErrUnavailable},
		{"none", "some", "degrade", ErrUnavailable},
		{"none", "all", "base", ErrUnavailable},
		{"none", "all", "rung", ErrUnavailable},
		{"none", "all", "degrade", ErrUnavailable},

		{"two", "none", "base", ErrUnavailable},
		{"two", "none", "rung", ErrUnavailable},
		{"two", "none", "degrade", ErrNoQuorumAck},
		{"two", "some", "base", ErrUnavailable},
		{"two", "some", "rung", ErrUnavailable},
		{"two", "some", "degrade", nil},
		{"two", "all", "base", ErrUnavailable},
		{"two", "all", "rung", ErrUnavailable},
		{"two", "all", "degrade", nil},

		{"all", "none", "base", ErrNoQuorumAck},
		{"all", "none", "rung", ErrNoQuorumAck},
		{"all", "none", "degrade", ErrNoQuorumAck},
		{"all", "some", "base", ErrNoQuorumAck},
		{"all", "some", "rung", ErrNoQuorumAck},
		{"all", "some", "degrade", nil},
		{"all", "all", "base", nil},
		{"all", "all", "rung", nil},
		{"all", "all", "degrade", nil},
	}
	for _, row := range rows {
		t.Run(row.answers+"-answer/"+row.acks+"-ack/"+row.mode, func(t *testing.T) {
			audit := &auditLog{}
			metrics := obs.NewRegistry()
			eng := NewEngine("fake", Config{
				Base:    specs.PriorityQueue(),
				Fold:    quorum.PQFold(),
				Respond: PQResponder,
				Audit:   audit,
				Metrics: metrics,
			})
			sites := &fakeSites{answers: answerSets[row.answers], acks: map[int]bool{}}
			for _, s := range ackSets[row.answers][row.acks] {
				sites.acks[s] = true
			}
			clock := quorum.NewClock(n + 1)
			var episodes []string
			op, err := eng.Execute(sites, Exec{
				Inv:     history.EnqInv(4),
				Gate:    gate,
				Label:   modes[row.mode].label,
				Degrade: modes[row.mode].degrade,
				Clock:   clock,
				Episode: func(_ []int, behavior string) { episodes = append(episodes, behavior) },
			})

			// Error identity.
			switch {
			case row.want == nil && err != nil:
				t.Fatalf("got %v, want success", err)
			case row.want != nil && !errors.Is(err, row.want):
				t.Fatalf("got %v, want %v", err, row.want)
			}
			for _, other := range []error{ErrUnavailable, ErrNoQuorumAck, ErrNoResponse, ErrUninterpretable} {
				if other != row.want && errors.Is(err, other) {
					t.Fatalf("error %v also matches %v", err, other)
				}
			}

			// Audit and observed see the op only on a quorum ack.
			var wantSeen history.History
			if row.want == nil {
				wantSeen = history.History{op}
			}
			if !audit.ops.Equal(wantSeen) || !eng.Observed().Equal(wantSeen) {
				t.Fatalf("audit saw %v and observed holds %v, want %v", audit.ops, eng.Observed(), wantSeen)
			}

			// Step 3 is sent exactly once, only to the step-1 responders,
			// unless the gate refused first; the clock ticks once per
			// entry sent and never otherwise.
			if row.want == ErrUnavailable {
				if len(sites.recorded) != 0 || clock.Now() != 0 {
					t.Fatalf("refused at the gate, yet %d step-3 sends and clock at %d", len(sites.recorded), clock.Now())
				}
				if !reflect.DeepEqual(episodes, []string{behaviorReject}) {
					t.Fatalf("episodes %v, want one reject", episodes)
				}
			} else {
				if len(sites.recorded) != 1 || !reflect.DeepEqual(sites.recorded[0], sites.answers) {
					t.Fatalf("step 3 sent to %v, want once to the responders %v", sites.recorded, sites.answers)
				}
				if sent := sites.sent[0]; sent.Len() != 1 || sent.Entry(0).TS != (quorum.Timestamp{Time: 1, Site: n + 1}) || clock.Now() != 1 {
					t.Fatalf("sent view %s with clock at %d, want one entry stamped by a single tick", sent, clock.Now())
				}
				wantBehavior := map[string]string{"base": behaviorQuorum, "rung": behaviorLevel + "Q1Q2", "degrade": behaviorQuorum}[row.mode]
				if row.answers == "two" {
					wantBehavior = behaviorDegraded // only the degrade mode gets here
				}
				if !reflect.DeepEqual(episodes, []string{wantBehavior}) {
					t.Fatalf("episodes %v, want [%s]", episodes, wantBehavior)
				}
			}

			// One outcome counter per execution, named under the prefix.
			outcome := map[error]string{nil: "ok", ErrUnavailable: "unavailable", ErrNoQuorumAck: "noack"}[row.want]
			snap := metrics.Snapshot()
			attempts, _ := snap.Counter("fake.execute.attempt.Enq")
			outcomes, _ := snap.Counter("fake.execute." + outcome + ".Enq")
			if attempts != 1 || outcomes != 1 {
				t.Fatalf("counters %v, want one attempt and one %s", snap.Counters, outcome)
			}
		})
	}
}

// TestEngineViewErrors pins the two refusals that come from the view
// rather than the sites, each as an errors.Is-matchable sentinel, and
// that neither reaches step 3.
func TestEngineViewErrors(t *testing.T) {
	gate := quorum.Majority(3, history.NameEnq, history.NameDeq)
	// An η with no initial state assigns no state to any view.
	noState := quorum.NewFoldEval(nil, func(value.Value, history.Op) []value.Value { return nil })
	for _, tc := range []struct {
		name string
		fold *quorum.FoldEval
		inv  history.Invocation
		want error
	}{
		{"uninterpretable", noState, history.EnqInv(1), ErrUninterpretable},
		{"no-response", quorum.PQFold(), history.DeqInv(), ErrNoResponse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine("fake", Config{Base: specs.PriorityQueue(), Fold: tc.fold, Respond: PQResponder})
			sites := &fakeSites{answers: []int{0, 1, 2}, acks: map[int]bool{0: true, 1: true, 2: true}}
			clock := quorum.NewClock(4)
			_, err := eng.Execute(sites, Exec{Inv: tc.inv, Gate: gate, Clock: clock})
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if len(sites.recorded) != 0 || clock.Now() != 0 || len(eng.Observed()) != 0 {
				t.Fatalf("refused before step 3, yet sends %v, clock %d, observed %v", sites.recorded, clock.Now(), eng.Observed())
			}
		})
	}
	// The simulated cluster returns the same sentinel.
	c := New(Config{
		Sites:   3,
		Quorums: gate,
		Base:    specs.PriorityQueue(),
		Fold:    noState,
		Respond: PQResponder,
	})
	if _, err := c.Client(0).Execute(history.EnqInv(1)); !errors.Is(err, ErrUninterpretable) {
		t.Fatalf("cluster: got %v, want ErrUninterpretable", err)
	}
}

// TestViewCacheMatchesScratchEvaluation holds the engine's cached,
// incremental η to the definition: at every operation of seeded
// multi-client runs under partitions, crashes, heals and gossip, the
// state the responder is handed is Fold.EvalLog of the view from
// scratch. The runs include views that extend no cached lineage (the
// first view after a heal merges divergent logs) and more divergent
// lineages than the cache has slots.
func TestViewCacheMatchesScratchEvaluation(t *testing.T) {
	const sites = 2*viewCacheSlots + 1
	fold := quorum.PQFold()
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var handed value.Value
			c := New(Config{
				Sites:   sites,
				Quorums: quorum.TaxiAssignments(sites)["none"],
				Base:    specs.PriorityQueue(),
				Fold:    fold,
				Respond: func(s value.Value, inv history.Invocation) (history.Op, bool) {
					handed = s
					return PQResponder(s, inv)
				},
			})
			clients := make([]*Client, sites)
			for i := range clients {
				clients[i] = c.Client(i)
				clients[i].Degrade = true
			}
			misses := 0
			for i := 0; i < 600; i++ {
				switch r := rng.Intn(40); {
				case r == 0:
					// Shatter into singletons: one lineage per site, twice
					// as many as the cache holds.
					groups := make([][]int, sites)
					for s := range groups {
						groups[s] = []int{s}
					}
					c.Partition(groups...)
				case r == 1:
					c.Partition([]int{0, 1, 2}, []int{3, 4, 5, 6})
				case r == 2:
					c.Heal()
				case r == 3:
					c.Heal()
					c.Gossip()
				case r == 4:
					c.Crash(rng.Intn(sites))
				case r == 5:
					c.Restore(rng.Intn(sites))
				}
				cl := clients[rng.Intn(sites)]
				inv := history.EnqInv(rng.Intn(9) + 1)
				if rng.Intn(3) == 0 {
					inv = history.DeqInv()
				}
				view, reachable := c.View(cl.home)
				if len(reachable) == 0 {
					continue
				}
				extends := false
				for _, e := range c.eng.viewCache {
					extends = extends || (e.states != nil && view.HasPrefix(e.log))
				}
				if !extends && i > 0 {
					misses++
				}
				handed = nil
				want := fold.EvalLog(view)
				if _, err := cl.Execute(inv); err != nil && !errors.Is(err, ErrNoResponse) {
					t.Fatalf("op %d (%s): %v", i, inv, err)
				}
				if len(want) != 1 || handed == nil || handed.Key() != want[0].Key() {
					t.Fatalf("op %d (%s): engine η = %v, scratch η = %v\nview %s", i, inv, handed, want, view)
				}
			}
			if misses <= viewCacheSlots {
				t.Fatalf("run too tame: %d views extended no cached lineage, want more than the %d slots", misses, viewCacheSlots)
			}
		})
	}

	// LoadSiteLog drops the cache: a replaced log must not be folded
	// from a lineage it no longer extends.
	c := New(Config{
		Sites:   3,
		Quorums: quorum.TaxiAssignments(3)["Q1Q2"],
		Base:    specs.PriorityQueue(),
		Fold:    fold,
		Respond: PQResponder,
	})
	cl := c.Client(0)
	for _, e := range []int{3, 7} {
		if _, err := cl.Execute(history.EnqInv(e)); err != nil {
			t.Fatal(err)
		}
	}
	if c.eng.viewCache[0].states == nil {
		t.Fatal("fold-mode execution left the view cache empty")
	}
	c.LoadSiteLog(1, c.SiteLog(1))
	for _, e := range c.eng.viewCache {
		if e.states != nil {
			t.Fatal("LoadSiteLog kept cached views")
		}
	}
}

// View assembles, without executing anything, the merged view a client
// homed at home would read in step 1 of the protocol, along with the
// reachable sites it would be built from. A client on a crashed site
// sees an empty view and no sites.
func (c *Cluster) View(home int) (quorum.Log, []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.up[home] {
		return quorum.Log{}, nil
	}
	reachable := c.reachableFrom(home)
	logs := make([]quorum.Log, 0, len(reachable))
	for _, s := range reachable {
		logs = append(logs, c.logs[s])
	}
	return quorum.Merge(logs...), reachable
}
