package relaxcheck

import (
	"bytes"
	"os"
	"strconv"
	"testing"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/obs/trace"
	"relaxlattice/internal/quorum"
)

// soakScale reads the tier-2 scale knobs: RELAXSOAK_OPS and
// RELAXSOAK_CLIENTS raise the in-test soak size (CI's soak job runs
// the full 10k × 200 certification; the default keeps plain `go test`
// fast).
func soakScale() (ops, clients int) {
	ops, clients = 2000, 60
	if s := os.Getenv("RELAXSOAK_OPS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			ops = n
		}
	}
	if s := os.Getenv("RELAXSOAK_CLIENTS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			clients = n
		}
	}
	return ops, clients
}

// soakFaults is the moderate background fault regime the soak tests
// run the cluster under.
func soakFaults() cluster.FaultConfig {
	return cluster.FaultConfig{MTTF: 60, MTTR: 8, MTBP: 150, PartitionDwell: 12}
}

// verifySamplesOffline cross-checks every sampled online verdict
// against the offline WeakestAccepting of the same prefix.
func verifySamplesOffline(t *testing.T, lat *lattice.Relaxation, r *SoakReport) {
	t.Helper()
	if len(r.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	for _, s := range r.Samples {
		want, _ := lat.WeakestAccepting(r.Observed[:s.Step])
		if !sameSets(s.Sets, want) {
			t.Fatalf("step %d: online %v, offline %v", s.Step, s.Sets, want)
		}
	}
	// And the final verdict over the whole audited history.
	want, _ := lat.WeakestAccepting(r.Observed)
	if !sameSets(r.Sets, want) {
		t.Fatalf("final: online %v, offline %v", r.Sets, want)
	}
}

// TestSoakCluster drives every workload kind through the cluster
// harness: zero violations, every submission resolved, and the online
// verdict equal to the offline replay on sampled prefixes and on the
// full observed history.
func TestSoakCluster(t *testing.T) {
	ops, clients := soakScale()
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := ClusterSoakConfig{
				Workload:    Workload{Kind: kind, Clients: clients, Ops: ops},
				Seed:        1987,
				SampleEvery: ops / 4,
			}
			if kind != FaultCorrelated {
				cfg.Faults = soakFaults()
			}
			report, err := RunClusterSoak(cfg)
			if err != nil {
				t.Fatalf("soak failed: %v", err)
			}
			if report.Completed+report.Failed != report.Ops {
				t.Fatalf("unresolved submissions: %+v", report)
			}
			if report.Steps != len(report.Observed) {
				t.Fatalf("audited %d ops, observed %d", report.Steps, len(report.Observed))
			}
			verifySamplesOffline(t, core.TaxiSimpleLattice(), report)
		})
	}
}

// TestSoakTxn is the transactional-runtime counterpart, for both
// dequeue-collision strategies (Semiqueue and Stuttering lattices).
func TestSoakTxn(t *testing.T) {
	ops, clients := soakScale()
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			report, err := RunTxnSoak(TxnSoakConfig{
				Workload:    Workload{Kind: kind, Clients: clients, Ops: ops},
				Seed:        1987,
				SampleEvery: ops / 4,
			})
			if err != nil {
				t.Fatalf("soak failed: %v", err)
			}
			verifySamplesOffline(t, core.SemiqueueLattice(3), report)
		})
	}
}

// obsBytes renders a registry snapshot and a journal to bytes.
func obsBytes(t *testing.T, reg *obs.Registry, rec *obs.Recorder) ([]byte, []byte) {
	t.Helper()
	var m, j bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&m); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	return m.Bytes(), j.Bytes()
}

// TestSoakReplayByteIdentical replays the same seed twice — fresh
// registry and journal each time — and demands byte-identical metrics
// (including the relaxcheck.* series) and episode journal.
func TestSoakReplayByteIdentical(t *testing.T) {
	run := func() ([]byte, []byte) {
		reg, rec := obs.NewRegistry(), obs.NewRecorder()
		_, err := RunClusterSoak(ClusterSoakConfig{
			Workload: Workload{Kind: Bursty, Clients: 40, Ops: 1500},
			Seed:     7,
			Faults:   soakFaults(),
			Metrics:  reg,
			Trace:    rec,
		})
		if err != nil {
			t.Fatalf("soak failed: %v", err)
		}
		return obsBytes(t, reg, rec)
	}
	m1, j1 := run()
	m2, j2 := run()
	if !bytes.Equal(m1, m2) {
		t.Fatal("metrics snapshots differ across same-seed replays")
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("episode journals differ across same-seed replays")
	}
	if !bytes.Contains(m1, []byte("relaxcheck.step")) {
		t.Fatal("snapshot missing relaxcheck.step")
	}
	if !bytes.Contains(j1, []byte("cluster.episode")) {
		t.Fatal("journal missing degradation episodes")
	}
}

// TestSoakOnlineCheckerRefutesNaiveRungClaims pins a finding the
// online checker produced that the offline X05 audit never caught at
// its scale: the nominal per-rung claim table (TaxiRungLevels) is
// unsound for mixed executions. Once adaptive clients straddle
// different ladder rungs, their voting assignments stop intersecting
// each other's quorums — a rung-Q1 dequeue can miss a rung-Q1Q2
// enqueue — so the merged history escapes φ({Q1}) even though every
// client honored its own rung. The checker must fail such a run at the
// exact offending operation.
//
// A violating run is also a pure function of its configuration: run
// twice, it names the same violation and emits byte-identical journal
// and span streams, so an incident is investigated by re-running its
// seed (DESIGN.md §14).
func TestSoakOnlineCheckerRefutesNaiveRungClaims(t *testing.T) {
	lat := core.TaxiSimpleLattice()
	refute := func() (*Violation, []byte, []byte) {
		rec := obs.NewRecorder()
		tr := trace.NewTracer("soak/cluster", nil)
		report, err := RunClusterSoak(ClusterSoakConfig{
			Workload: Workload{Kind: Bursty, Clients: 40, Ops: 1500},
			Seed:     7,
			Faults:   soakFaults(),
			Claims:   TaxiRungLevels(lat.Universe, quorum.TaxiAssignments(5)),
			Trace:    rec,
			Spans:    tr,
		})
		if err == nil {
			t.Fatal("naive per-rung claims survived a mixed-assignment soak")
		}
		var j, sp bytes.Buffer
		if err := rec.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteJSONL(&sp); err != nil {
			t.Fatal(err)
		}
		return report.Violation, j.Bytes(), sp.Bytes()
	}
	v, j1, s1 := refute()
	if v == nil || v.Kind != KindClaim {
		t.Fatalf("violation = %+v", v)
	}
	if v.Step == 0 || v.Op.Name == "" {
		t.Fatalf("violation not pinned to an operation: %+v", v)
	}
	v2, j2, s2 := refute()
	if v2 == nil || v2.Step != v.Step || v2.Op.String() != v.Op.String() || v2.Claim != v.Claim {
		t.Fatalf("replay names a different violation: %+v, first run %+v", v2, v)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("journals of the violating run differ across same-seed replays")
	}
	if len(s1) == 0 || !bytes.Equal(s1, s2) {
		t.Fatal("span streams of the violating run are empty or differ across same-seed replays")
	}
	want := `"name":"relaxcheck.violation","kind":"claim","step":"` + strconv.Itoa(v.Step) + `"`
	if !bytes.Contains(j1, []byte(want)) {
		t.Fatalf("journal has no relaxcheck.violation event at step %d", v.Step)
	}
	// The same run under the honest joint-guarantee table is clean.
	if _, err := RunClusterSoak(ClusterSoakConfig{
		Workload: Workload{Kind: Bursty, Clients: 40, Ops: 1500},
		Seed:     7,
		Faults:   soakFaults(),
	}); err != nil {
		t.Fatalf("joint-guarantee claims violated: %v", err)
	}
}

// TestSoakTxnReplayByteIdentical is the txn-side determinism check.
func TestSoakTxnReplayByteIdentical(t *testing.T) {
	run := func() ([]byte, []byte) {
		reg, rec := obs.NewRegistry(), obs.NewRecorder()
		_, err := RunTxnSoak(TxnSoakConfig{
			Workload: Workload{Kind: Skewed, Clients: 40, Ops: 1500},
			Seed:     7,
			Metrics:  reg,
			Trace:    rec,
		})
		if err != nil {
			t.Fatalf("soak failed: %v", err)
		}
		return obsBytes(t, reg, rec)
	}
	m1, j1 := run()
	m2, j2 := run()
	if !bytes.Equal(m1, m2) {
		t.Fatal("metrics snapshots differ across same-seed replays")
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("journals differ across same-seed replays")
	}
}
