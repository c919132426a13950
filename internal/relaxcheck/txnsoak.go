package relaxcheck

import (
	"errors"
	"fmt"

	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/obs/trace"
	"relaxlattice/internal/sim"
	"relaxlattice/internal/txn"
	"relaxlattice/internal/value"
)

// TxnSoakConfig parameterizes one deterministic soak run against the
// transactional queue runtime (the Section 4.2 print spooler): seeded
// producer and dequeuer transactions on simulated time, with the
// online checker attached to the committed serialized history and the
// observed dequeuer concurrency registered as the claimed C_k level.
type TxnSoakConfig struct {
	// Workload shapes the arrival plan (Clients/Ops required; element
	// values are ignored — the spool enqueues distinct items so the
	// lattice frontier stays singleton).
	Workload Workload
	// Seed drives the plan and dequeuer dwell times.
	Seed int64
	// Dequeuers bounds the concurrently active dequeuing transactions
	// and sizes the spool constraint universe {C₁..C_n} (default 3).
	Dequeuers int
	// Metrics, Trace, SampleEvery: as in ClusterSoakConfig.
	Metrics     *obs.Registry
	Trace       *obs.Recorder
	SampleEvery int
	// Spans, when set, receives one causal span per transaction on the
	// schedule-index time axis (the serialization-relevant clock of the
	// txn layer).
	Spans *trace.Tracer
}

// SpoolClaims maps each C_k level name onto its constraint set
// {C_k..C_n}: at most k concurrent dequeuers means every weaker
// concurrency bound holds too.
func SpoolClaims(u *lattice.Universe) map[string]lattice.Set {
	claims := map[string]lattice.Set{}
	for k := 1; k <= u.Len(); k++ {
		var s lattice.Set
		for j := k; j <= u.Len(); j++ {
			s = s.Union(u.Named(core.ConstraintCk(j)))
		}
		claims[core.ConstraintCk(k)] = s
	}
	return claims
}

// RunTxnSoak executes one spooler soak run. The checker audits the
// committed serialized history (hybrid atomicity: commit order is
// serialization order) of the optimistic spooler against its
// SemiqueueLattice, and each rise of the dequeuer-concurrency
// high-water mark k is registered as the claim C_k the rest of the run
// must stay within.
func RunTxnSoak(cfg TxnSoakConfig) (*SoakReport, error) {
	if cfg.Dequeuers <= 0 {
		cfg.Dequeuers = 3
	}
	lat := core.SemiqueueLattice(cfg.Dequeuers)
	checker := New(lat, Options{
		Metrics:     cfg.Metrics,
		Trace:       cfg.Trace,
		Claims:      SpoolClaims(lat.Universe),
		SampleEvery: cfg.SampleEvery,
	})

	if cfg.Workload.Sites <= 0 {
		// FaultCorrelated plans need a site count to shape fault windows;
		// the txn runtime has no topology, so only the time-clustered
		// arrival shape matters and plan.Faults goes unused.
		cfg.Workload.Sites = 5
	}
	q := txn.NewQueue(txn.Optimistic)
	q.Observe(cfg.Metrics, cfg.Trace)
	q.AttachAudit(checker)
	cfg.Spans.SetClock(obs.ClockFunc(func() int64 { return int64(q.ScheduleLen()) }))
	q.TraceSpans(cfg.Spans)

	g := sim.NewRNG(cfg.Seed)
	var engine sim.Engine
	plan := cfg.Workload.Plan(g.Split())
	dwell := g.Split() // dequeuer hold times

	report := &SoakReport{Ops: len(plan.Arrivals)}
	nextElem := 0
	active := 0      // dequeuing transactions currently open
	claimedHigh := 0 // highest C_k claimed so far
	meanDwell := cfg.Workload.Horizon() / float64(cfg.Workload.Ops) * float64(cfg.Dequeuers)

	for _, a := range plan.Arrivals {
		a := a
		engine.At(a.At, func() {
			if a.Inv.Name != history.NameDeq {
				// Producer transaction: enqueue one distinct item and
				// commit immediately.
				nextElem++
				t := q.Begin()
				must(q.Enq(t, value.Elem(nextElem)))
				must(q.Commit(t))
				report.Completed++
				return
			}
			if active >= cfg.Dequeuers {
				// The dequeuer pool is saturated; admitting another
				// would overflow the constraint universe.
				report.Failed++
				return
			}
			t := q.Begin()
			e, err := q.Deq(t)
			if err != nil {
				// Empty queue (or a blocked head under Blocking):
				// nothing to spool; the transaction gives up.
				must(q.AbortTxn(t))
				report.Failed++
				return
			}
			_ = e
			active++
			if k := q.MaxConcurrentDequeuers(); k > claimedHigh {
				claimedHigh = k
				checker.ObserveClaim(0, core.ConstraintCk(k))
			}
			// Hold the item for a while (the printing), then commit.
			engine.After(dwell.Exp(meanDwell), func() {
				must(q.Commit(t))
				active--
				report.Completed++
			})
		})
	}
	engine.Run(cfg.Workload.Horizon() * 2)

	report.Steps = checker.Steps()
	report.Violation = checker.Violation()
	report.Level = checker.Level()
	report.Sets = checker.Current()
	report.FloorClaim = checker.FloorClaim()
	report.MaxFrontier = checker.MaxFrontier()
	report.Samples = checker.Samples()
	report.Observed = committedHistory(q)
	if report.Violation != nil {
		return report, report.Violation
	}
	if report.Completed+report.Failed != report.Ops {
		return report, fmt.Errorf("relaxcheck: %d of %d transactions unresolved at horizon",
			report.Ops-report.Completed-report.Failed, report.Ops)
	}
	return report, nil
}

// committedHistory rebuilds the committed serialized history the audit
// observed — the per-transaction projections of the permanent schedule
// concatenated in commit order (hybrid atomicity).
func committedHistory(q *txn.Queue) history.History {
	s := q.Schedule().Perm()
	var h history.History
	for _, t := range s.Committed() {
		h = append(h, s.Proj(t)...)
	}
	return h
}

// must panics on a runtime error in the deterministic driver — any
// error here is a harness bug, not a property violation.
func must(err error) {
	if err != nil {
		panic(errors.Join(errors.New("relaxcheck: soak driver"), err))
	}
}
