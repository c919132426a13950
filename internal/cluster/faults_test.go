package cluster

import (
	"errors"
	"strings"
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/sim"
	"relaxlattice/internal/specs"
)

func TestFaultProcessInjectsAndRecovers(t *testing.T) {
	c := taxiCluster(t, 5, "Q1Q2")
	var engine sim.Engine
	g := sim.NewRNG(42)
	f := NewFaultProcess(c, &engine, g, FaultConfig{
		MTTF: 10, MTTR: 3,
		MTBP: 25, PartitionDwell: 5,
	})
	f.Start()
	engine.Run(200)
	if f.Crashes == 0 || f.Repairs == 0 {
		t.Errorf("no crash/repair cycles: %s", f)
	}
	if f.Partitions == 0 || f.Heals == 0 {
		t.Errorf("no partition/heal cycles: %s", f)
	}
	// Crash/repair counts stay within one of each other (each site's
	// cycle alternates).
	if f.Crashes-f.Repairs < 0 || f.Crashes-f.Repairs > 5 {
		t.Errorf("unbalanced cycles: %s", f)
	}
	if !strings.Contains(f.String(), "crashes=") {
		t.Errorf("String = %q", f.String())
	}
}

// Under continuous faults, a degrading client keeps operating and the
// observed history never leaves the bottom of the taxi lattice.
func TestFaultsWithDegradingWorkload(t *testing.T) {
	c := taxiCluster(t, 5, "Q1Q2")
	var engine sim.Engine
	g := sim.NewRNG(7)
	f := NewFaultProcess(c, &engine, g, FaultConfig{MTTF: 8, MTTR: 4, MTBP: 20, PartitionDwell: 6})
	f.Start()

	completed, unavailable := 0, 0
	at := 0.0
	for i := 0; i < 120; i++ {
		at += g.Exp(1.0)
		i := i
		engine.At(at, func() {
			cl := c.Client(g.Intn(5))
			cl.Degrade = true
			var err error
			if i%2 == 0 {
				_, err = cl.Execute(history.EnqInv(1 + g.Intn(9)))
			} else {
				_, err = cl.Execute(history.DeqInv())
			}
			switch {
			case err == nil:
				completed++
			case errors.Is(err, ErrUnavailable), errors.Is(err, ErrNoResponse):
				unavailable++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		})
	}
	engine.Run(at + 50)
	if completed < 60 {
		t.Fatalf("too few completions: %d (unavailable %d, %s)", completed, unavailable, f)
	}
	obs := c.Observed()
	// Whatever happened, the degenerate priority queue accepts it: every
	// returned element was at some point enqueued.
	if !automaton.Accepts(specs.DegeneratePriorityQueue(), obs) {
		t.Errorf("observed history outside the lattice bottom: %v", obs)
	}
}

func TestFaultConfigPanics(t *testing.T) {
	c := taxiCluster(t, 3, "none")
	var engine sim.Engine
	g := sim.NewRNG(1)
	for name, cfg := range map[string]FaultConfig{
		"mttr":  {MTTF: 5},
		"dwell": {MTBP: 5},
	} {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewFaultProcess(c, &engine, g, cfg)
		}()
	}
}

// The cluster also works with explicit (grid) quorum assignments via
// the Assignment interface.
func TestClusterWithGridAssignment(t *testing.T) {
	grid := quorum.Grid(2, 3, history.NameEnq, history.NameDeq)
	c := New(Config{
		Sites:   6,
		Quorums: grid,
		Base:    specs.PriorityQueue(),
		Fold:    quorum.PQFold(),
		Respond: PQResponder,
	})
	cl := c.Client(0)
	if _, err := cl.Execute(history.EnqInv(4)); err != nil {
		t.Fatalf("Enq: %v", err)
	}
	op, err := cl.Execute(history.DeqInv())
	if err != nil || op.Res[0] != 4 {
		t.Fatalf("Deq = %v, %v", op, err)
	}
	// Crash a full row (sites 0..2): no row quorum remains → rows are
	// initial quorums, so the op must report unavailable... unless the
	// other row survives. Crash sites 0,1,2 = row 0; row 1 = sites 3,4,5
	// still forms quorums with its columns? A column needs one site per
	// row, so columns are dead: Deq unavailable.
	c.Crash(3)
	c.Crash(4)
	c.Crash(5)
	cl2 := c.Client(0)
	if _, err := cl2.Execute(history.DeqInv()); !errors.Is(err, ErrUnavailable) {
		t.Errorf("expected ErrUnavailable with a dead row, got %v", err)
	}
}

func TestFaultProcessRejectsNegativeMeans(t *testing.T) {
	c := taxiCluster(t, 3, "Q1Q2")
	var engine sim.Engine
	g := sim.NewRNG(1)
	for _, cfg := range []FaultConfig{
		{MTTF: -1, MTTR: 1},
		{MTTF: 10, MTTR: -1},
		{MTBP: -5, PartitionDwell: 1},
		{MTBP: 10, PartitionDwell: -0.5},
	} {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			NewFaultProcess(c, &engine, g, cfg)
		}()
	}
	// Zero means are fine: both fault classes simply disabled.
	f := NewFaultProcess(c, &engine, g, FaultConfig{})
	f.Start()
	if engine.Pending() != 0 {
		t.Errorf("disabled fault process scheduled %d events", engine.Pending())
	}
}

// Stop freezes injection but lets in-flight repairs complete, so the
// cluster converges back to full health.
func TestFaultProcessStopHeals(t *testing.T) {
	c := taxiCluster(t, 5, "Q1Q2")
	var engine sim.Engine
	g := sim.NewRNG(3)
	f := NewFaultProcess(c, &engine, g, FaultConfig{MTTF: 5, MTTR: 10, MTBP: 15, PartitionDwell: 20})
	f.Start()
	engine.Run(50)
	if f.Crashes == 0 {
		t.Fatal("no faults injected before Stop")
	}
	f.Stop()
	crashes, partitions := f.Crashes, f.Partitions
	// Long after the longest dwell, every repair has run and nothing
	// new was injected.
	engine.Run(10_000)
	if f.Crashes != crashes || f.Partitions != partitions {
		t.Errorf("faults injected after Stop: %s (had crashes=%d partitions=%d)", f, crashes, partitions)
	}
	if f.Repairs != f.Crashes || f.Heals != f.Partitions {
		t.Errorf("in-flight recoveries did not complete: %s", f)
	}
	if c.UpSites() != 5 {
		t.Errorf("%d sites up after Stop+drain, want 5", c.UpSites())
	}
	if engine.Pending() != 0 {
		t.Errorf("%d events still pending after drain", engine.Pending())
	}
}
