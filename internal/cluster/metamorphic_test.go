package cluster

import (
	"bytes"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/resilience"
	"relaxlattice/internal/sim"
	"relaxlattice/internal/specs"
)

// Metamorphic relations over the adaptive cluster: the fault-free
// variant of any seeded scenario is the MTTF→∞/MTBP→∞ limit, and in
// that limit a client must stay at the top of the ladder with every
// submission served on its first attempt; and the whole scenario —
// workload, faults, retries, probes — must replay byte-identically
// from its seed (metrics snapshot and episode journal alike).

// adaptiveScenario runs one seeded workload and returns its outcome.
type scenarioResult struct {
	completed, failed, retries int
	floor, level               string
	metrics                    []byte
	journal                    []byte
}

func runScenario(t *testing.T, seed int64, faults FaultConfig) scenarioResult {
	t.Helper()
	reg := obs.NewRegistry()
	rec := obs.NewRecorder()
	c := New(Config{
		Sites:   5,
		Quorums: quorum.TaxiAssignments(5)["Q1Q2"],
		Base:    specs.PriorityQueue(),
		Fold:    quorum.PQFold(),
		Respond: PQResponder,
		Metrics: reg,
		Trace:   rec,
	})
	g := sim.NewRNG(seed)
	var engine sim.Engine
	ladder := TaxiLadder(5)
	a := c.Adaptive(0, ladder, &engine, g.Split())
	fp := NewFaultProcess(c, &engine, g.Split(), faults)
	fp.Start()
	engine.At(100, fp.Stop)

	var res scenarioResult
	at := 0.0
	for i := 0; i < 80; i++ {
		at += g.Exp(1.2)
		inv := history.DeqInv()
		if i%3 != 2 {
			inv = history.EnqInv(1 + g.Intn(9))
		}
		engine.At(at, func() {
			a.Submit(inv, func(_ history.Op, out resilience.Outcome) {
				if out.Err == nil {
					res.completed++
				} else {
					res.failed++
				}
				res.retries += out.Attempts - 1
			})
		})
	}
	engine.Run(250)
	res.floor = ladder[a.Controller().Floor()].Name
	res.level = a.Current().Name
	var mbuf, jbuf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&mbuf); err != nil {
		t.Fatalf("metrics snapshot: %v", err)
	}
	if err := rec.WriteJSONL(&jbuf); err != nil {
		t.Fatalf("journal: %v", err)
	}
	res.metrics = mbuf.Bytes()
	res.journal = jbuf.Bytes()
	return res
}

// ladderRank maps rung names to their depth for "never lower" checks.
var ladderRank = map[string]int{"Q1Q2": 0, "Q1": 1, "none": 2}

func TestMetamorphicFewerFaultsNeverLower(t *testing.T) {
	harsh := FaultConfig{MTTF: 12, MTTR: 8, MTBP: 30, PartitionDwell: 12}
	for seed := int64(1); seed <= 5; seed++ {
		calm := runScenario(t, seed, FaultConfig{})
		faulty := runScenario(t, seed, harsh)
		// The fault-free limit: nothing fails, nothing retries, and the
		// client never leaves the top of the ladder.
		if calm.failed != 0 || calm.retries != 0 {
			t.Errorf("seed %d: calm run failed=%d retries=%d", seed, calm.failed, calm.retries)
		}
		if calm.floor != "Q1Q2" || calm.level != "Q1Q2" {
			t.Errorf("seed %d: calm run floor=%s level=%s, want Q1Q2", seed, calm.floor, calm.level)
		}
		if calm.completed != 80 {
			t.Errorf("seed %d: calm run completed %d of 80", seed, calm.completed)
		}
		// Removing faults never lands the client lower in the lattice.
		if ladderRank[calm.floor] > ladderRank[faulty.floor] {
			t.Errorf("seed %d: calm floor %s below faulty floor %s", seed, calm.floor, faulty.floor)
		}
		// And never completes less of the workload.
		if calm.completed < faulty.completed {
			t.Errorf("seed %d: calm completed %d < faulty %d", seed, calm.completed, faulty.completed)
		}
	}
}

func TestMetamorphicScenarioReplaysByteIdentical(t *testing.T) {
	faults := FaultConfig{MTTF: 12, MTTR: 8, MTBP: 30, PartitionDwell: 12}
	for seed := int64(1); seed <= 3; seed++ {
		a := runScenario(t, seed, faults)
		b := runScenario(t, seed, faults)
		if !bytes.Equal(a.metrics, b.metrics) {
			t.Errorf("seed %d: metrics snapshots differ between identical runs", seed)
		}
		if !bytes.Equal(a.journal, b.journal) {
			t.Errorf("seed %d: episode journals differ between identical runs", seed)
		}
		if a.completed != b.completed || a.failed != b.failed || a.retries != b.retries || a.floor != b.floor {
			t.Errorf("seed %d: outcomes differ: %+v vs %+v", seed, a, b)
		}
		// The degraded runs actually exercise the resilience metrics:
		// at least one seed must retry and descend.
		if seed == 1 && a.retries == 0 {
			t.Error("harsh scenario produced no retries; relation is vacuous")
		}
	}
}
