package experiments

import (
	"fmt"
	"io"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxcheck"
	"relaxlattice/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "X06",
		Title: "Extension — online relaxation checking: soak sweep certifying live verdicts against offline replay",
		Paper: "Section 3.3 (the post-hoc lattice audit of X05, made incremental and checked while the run executes)",
		Run:   runSoakCheck,
	})
}

// soakOps and soakClients size every run of the X06 and X07 sweeps.
const soakOps, soakClients = 800, 40

// runSoakCheck sweeps the relaxcheck soak harness across every workload
// generator and both runtimes, with the online incremental checker
// attached to the observation path. For each run it cross-checks the
// checker's sampled verdicts — and its final one — against the offline
// WeakestAccepting replay of the same prefix, so the table certifies
// that stepping automaton frontiers one operation at a time lands on
// exactly the φ(C) a full post-hoc audit would report. A final negative
// control re-runs one mixed-rung soak under the naive per-rung claim
// table and demands the checker refute it at a specific operation: with
// clients straddling ladder rungs, cross-rung quorums stop
// intersecting, so the merged history escapes even φ({Q1}) — a
// violation X05's end-of-run audit cannot localize and small runs never
// hit.
func runSoakCheck(w io.Writer, cfg Config) error {
	const ops, clients = soakOps, soakClients
	const sampleEvery = ops / 4
	faults := cluster.FaultConfig{MTTF: 60, MTTR: 8, MTBP: 150, PartitionDwell: 12}
	taxi := core.TaxiSimpleLattice()
	semi := core.SemiqueueLattice(3)

	fmt.Fprintf(w, "workloads: %d clients × %d ops per run; online verdict sampled every %d ops and compared to the offline replay\n\n",
		clients, ops, sampleEvery)

	t := sim.NewTable("harness", "workload", "completed", "failed", "steps", "level", "floor",
		"frontier", "samples", "online=offline")

	// agrees counts how many sampled verdicts (plus the final one) the
	// offline replay confirms.
	agrees := func(lat *lattice.Relaxation, r *relaxcheck.SoakReport) (int, int) {
		ok, total := 0, 0
		check := func(step int, sets []lattice.Set) {
			total++
			want, _ := lat.WeakestAccepting(r.Observed[:step])
			if len(want) == len(sets) {
				same := true
				for i := range want {
					if want[i] != sets[i] {
						same = false
					}
				}
				if same {
					ok++
				}
			}
		}
		for _, s := range r.Samples {
			check(s.Step, s.Sets)
		}
		check(len(r.Observed), r.Sets)
		return ok, total
	}

	allAgree, clean := true, true
	for _, kind := range relaxcheck.Kinds() {
		scfg := relaxcheck.ClusterSoakConfig{
			Workload:    relaxcheck.Workload{Kind: kind, Clients: clients, Ops: ops},
			Seed:        cfg.Seed,
			Sites:       cfg.Sites,
			SampleEvery: sampleEvery,
			Metrics:     cfg.Metrics,
			Trace:       cfg.Trace,
		}
		if kind != relaxcheck.FaultCorrelated {
			scfg.Faults = faults
		}
		r, err := relaxcheck.RunClusterSoak(scfg)
		if err != nil {
			return fmt.Errorf("cluster soak %s: %w", kind, err)
		}
		ok, total := agrees(taxi, r)
		allAgree = allAgree && ok == total
		clean = clean && r.Violation == nil
		t.AddRow("cluster", kind.String(), r.Completed, r.Failed, r.Steps, r.Level, r.FloorClaim,
			r.MaxFrontier, total, fmt.Sprintf("%d/%d", ok, total))
	}
	for _, kind := range relaxcheck.Kinds() {
		r, err := relaxcheck.RunTxnSoak(relaxcheck.TxnSoakConfig{
			Workload:    relaxcheck.Workload{Kind: kind, Clients: clients, Ops: ops},
			Seed:        cfg.Seed,
			SampleEvery: sampleEvery,
			Metrics:     cfg.Metrics,
			Trace:       cfg.Trace,
		})
		if err != nil {
			return fmt.Errorf("txn soak %s: %w", kind, err)
		}
		ok, total := agrees(semi, r)
		allAgree = allAgree && ok == total
		clean = clean && r.Violation == nil
		t.AddRow("txn", kind.String(), r.Completed, r.Failed, r.Steps, r.Level, r.FloorClaim,
			r.MaxFrontier, total, fmt.Sprintf("%d/%d", ok, total))
	}
	t.Render(w)

	// Negative control: the nominal per-rung claim table must be refuted
	// the moment mixed-rung quorums stop intersecting. The run is pinned
	// (workload, seed, sites) to a known counterexample — a specific
	// execution where a rung-Q1 dequeue misses a rung-Q1Q2 enqueue — so
	// the demonstration does not depend on the sweep's flags.
	refuted := "not refuted"
	naive, naiveErr := relaxcheck.RunClusterSoak(relaxcheck.ClusterSoakConfig{
		Workload: relaxcheck.Workload{Kind: relaxcheck.Bursty, Clients: 40, Ops: 1500},
		Seed:     7,
		Sites:    5,
		Faults:   faults,
		Claims:   relaxcheck.TaxiRungLevels(taxi.Universe, quorum.TaxiAssignments(5)),
	})
	refutedOK := naiveErr != nil && naive.Violation != nil && naive.Violation.Kind == relaxcheck.KindClaim
	if refutedOK {
		refuted = fmt.Sprintf("claim violation at step %d (%v)", naive.Violation.Step, naive.Violation.Op)
	}

	fmt.Fprintln(w)
	fmt.Fprintf(w, "every sampled online verdict equals the offline WeakestAccepting replay: %s\n", verdict(allAgree))
	fmt.Fprintf(w, "zero violations under the joint-guarantee claim table: %s\n", verdict(clean))
	fmt.Fprintf(w, "online checker refutes the naive per-rung claim table mid-run: %s — %s\n", verdict(refutedOK), refuted)
	if !allAgree || !refutedOK {
		return fmt.Errorf("online/offline certification failed (agree=%v refuted=%v)", allAgree, refutedOK)
	}
	return nil
}
