package integration

import (
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/sim"
	"relaxlattice/internal/specs"
)

// The determinism facts Theorem 4's proof leans on hold for the paper's
// automata: "for all H in L(MPQ), δ*(H) is a singleton set" — and the
// same for the other deterministic specifications.
func TestProofDeterminismFacts(t *testing.T) {
	alphabet := history.QueueAlphabet(2)
	for _, a := range []automaton.Automaton{
		specs.PriorityQueue(), specs.MultiPriorityQueue(), specs.FIFOQueue(),
		specs.OutOfOrderQueue(), specs.DegeneratePriorityQueue(),
		specs.BagAutomaton(),
	} {
		ok, witness := automaton.IsDeterministic(a, alphabet, 5)
		if !ok {
			t.Errorf("%s nondeterministic at %v", a.Name(), witness)
		}
	}
	// The stuttering queue is genuinely nondeterministic (stutter vs
	// advance).
	ok, _ := automaton.IsDeterministic(specs.StutteringQueue(2), alphabet, 4)
	if ok {
		t.Errorf("Stuttering_2 reported deterministic")
	}
	// MFQueue's slot-level served marks make it nondeterministic only
	// when duplicate element values occur (re-serving slot 0 of [1*,1]
	// versus serving slot 1 yield distinct states); with distinct
	// elements it is deterministic.
	ok, witness := automaton.IsDeterministic(specs.MultiFIFOQueue(), alphabet, 4)
	if ok {
		t.Errorf("MFQueue with duplicates reported deterministic")
	} else if witness.Count(history.NameEnq) < 2 {
		t.Errorf("MFQueue nondeterminism witness without duplicate enqueues: %v", witness)
	}
}

// Soak: a long fault-ridden degraded run with the online StepChecker
// cross-checked against the offline audit at sampled points, and the
// final history re-justified by the QCA machinery.
func TestSoakClusterMonitor(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	lat := core.TaxiSimpleLattice()
	for seed := int64(0); seed < 3; seed++ {
		g := sim.NewRNG(seed)
		c := cluster.New(cluster.Config{
			Sites:   5,
			Quorums: quorum.TaxiAssignments(5)["Q1Q2"],
			Base:    specs.PriorityQueue(),
			Fold:    quorum.PQFold(),
			Respond: cluster.PQResponder,
		})
		var engine sim.Engine
		faults := cluster.NewFaultProcess(c, &engine, g.Split(), cluster.FaultConfig{
			MTTF: 12, MTTR: 4, MTBP: 30, PartitionDwell: 8,
		})
		faults.Start()
		m := lattice.NewStepChecker(lat)
		fed := 0
		at := 0.0
		for i := 0; i < 400; i++ {
			at += g.Exp(0.5)
			i := i
			engine.At(at, func() {
				cl := c.Client(g.Intn(5))
				cl.Degrade = true
				var op history.Op
				var err error
				if i%5 < 3 {
					op, err = cl.Execute(history.EnqInv(1 + g.Intn(9)))
				} else {
					op, err = cl.Execute(history.DeqInv())
				}
				if err != nil {
					return
				}
				fed++
				if !m.Step(op) {
					t.Errorf("seed %d: checker died at op %d (%v)", seed, fed, op)
				}
				// Periodic cross-check against the offline audit.
				if fed%50 == 0 {
					want, ok := lat.WeakestAccepting(c.Observed())
					if !ok {
						t.Fatalf("seed %d: offline audit rejected observed history", seed)
					}
					got := m.Current()
					if len(got) != len(want) {
						t.Fatalf("seed %d at %d ops: checker %v vs offline %v", seed, fed, got, want)
					}
					for j := range got {
						if got[j] != want[j] {
							t.Fatalf("seed %d: checker %v vs offline %v", seed, got, want)
						}
					}
				}
			})
		}
		engine.Run(at + 100)
		if fed < 200 {
			t.Fatalf("seed %d: only %d ops completed (%s)", seed, fed, faults)
		}
		obs := c.Observed()
		// Everything the degraded cluster did is justified by the
		// fully-relaxed QCA — i.e., by SOME choice of views.
		qca := quorum.NewQCA("QCA(PQ,∅,η)", specs.PriorityQueue(), quorum.NewRelation(), quorum.PQFold())
		// QCA acceptance enumerates views; for long histories use the
		// degenerate equivalence instead (E06): L(QCA(PQ,∅,η)) = L(DegenPQ).
		if !automaton.Accepts(specs.DegeneratePriorityQueue(), obs) {
			t.Fatalf("seed %d: observed history outside the lattice bottom", seed)
		}
		_ = qca
	}
}
