package relaxcheck

import (
	"fmt"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/obs/trace"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/resilience"
	"relaxlattice/internal/sim"
	"relaxlattice/internal/specs"
)

// ClusterSoakConfig parameterizes one deterministic cluster soak run:
// hundreds of adaptive clients submitting a seeded workload on
// simulated time against the replicated taxi priority queue, with the
// online checker attached to the observation path as a live audit.
type ClusterSoakConfig struct {
	// Workload shapes the arrival plan. Clients/Ops are required.
	Workload Workload
	// Seed drives every random choice (plan, retry jitter, faults).
	Seed int64
	// Sites is the cluster size (default 5).
	Sites int
	// Faults, when non-zero, runs a stochastic background fault
	// process in addition to any faults the workload plans.
	Faults cluster.FaultConfig
	// Metrics and Trace, when set, receive the cluster's and the
	// checker's series and events.
	Metrics *obs.Registry
	Trace   *obs.Recorder
	// SampleEvery, when positive, records the checker's verdict every
	// SampleEvery observed operations (for differential audits).
	SampleEvery int
	// Claims overrides the rung→constraint-set claim table (default
	// TaxiClaims over the run's ladder). X06 uses TaxiRungLevels here
	// to demonstrate that the checker refutes the nominal per-rung
	// claims under mixing.
	Claims map[string]lattice.Set
	// Spans, when set, receives the run's causal span stream. The soak
	// re-clocks the tracer onto simulated microseconds (a SimClock over
	// the engine), so spans measure where sim-time went; protocol steps
	// at one instant still get distinct strictly ordered boundaries.
	Spans *trace.Tracer
}

// SoakReport summarizes a soak run.
type SoakReport struct {
	// Ops is the number of planned submissions; Completed + Failed
	// account for every one (Failed counts unavailability after
	// retries and semantic rejections like dequeuing an empty queue).
	Ops, Completed, Failed int
	// Steps is the number of operations the checker observed.
	Steps int
	// Violation is the first checker violation (nil on a clean run).
	Violation *Violation
	// Level renders the final lattice position; Sets is the same as
	// constraint sets.
	Level string
	Sets  []lattice.Set
	// FloorClaim is the weakest degradation level any client claimed
	// ("" when every client stayed at the top).
	FloorClaim string
	// MaxFrontier is the checker's largest automaton frontier.
	MaxFrontier int
	// Samples are the checker's sampled verdicts (SampleEvery).
	Samples []Sample
	// Observed is the audited history, for offline cross-checks.
	Observed history.History
}

// TaxiClaims maps each rung of a degradation ladder onto what a *joint*
// execution guarantees while the weakest client sits at that rung: the
// taxi level of quorum.Joint over that rung and every rung above it,
// since the clients above the floor may run any of them. It is the
// claim table the harness cross-checks adaptive moves against.
//
// Over cluster.TaxiLadder, at every n ≥ 3, only the top rung claims
// anything: mixed rungs' quorums do not meet. Q1Q2's final Enq quorum
// (n−⌊n/2⌋) plus Q1's initial Deq quorum (⌊n/2⌋) covers only n sites,
// so a rung-Q1 dequeue can miss a rung-Q1Q2 enqueue and the merged
// history escapes even φ({Q1}).
func TaxiClaims(u *lattice.Universe, ladder []cluster.Level) map[string]lattice.Set {
	claims := make(map[string]lattice.Set, len(ladder))
	active := make([]quorum.Assignment, 0, len(ladder))
	for _, l := range ladder {
		active = append(active, l.Quorums)
		claims[l.Name] = core.TaxiLevel(u, quorum.Joint(active...))
	}
	return claims
}

// TaxiRungLevels maps each assignment onto the taxi level it realizes
// alone — sound while every client runs that one rung, as X05's
// post-hoc audit assumes. Under mixing it is unsound (see TaxiClaims),
// and X06 keeps it as the foil its online checker refutes.
func TaxiRungLevels(u *lattice.Universe, assignments map[string]*quorum.Voting) map[string]lattice.Set {
	claims := make(map[string]lattice.Set, len(assignments))
	for name, a := range assignments {
		claims[name] = core.TaxiLevel(u, quorum.Joint(a))
	}
	return claims
}

// RunClusterSoak executes one soak run. It returns the report and a
// non-nil error when the run violated its lattice claims (the report
// is valid either way).
func RunClusterSoak(cfg ClusterSoakConfig) (*SoakReport, error) {
	if cfg.Sites <= 0 {
		cfg.Sites = 5
	}
	w := cfg.Workload
	w.Sites = cfg.Sites

	lat := core.TaxiSimpleLattice()
	ladder := cluster.TaxiLadder(cfg.Sites)
	claims := cfg.Claims
	if claims == nil {
		claims = TaxiClaims(lat.Universe, ladder)
	}
	checker := New(lat, Options{
		Metrics:     cfg.Metrics,
		Trace:       cfg.Trace,
		Claims:      claims,
		SampleEvery: cfg.SampleEvery,
	})
	// The run starts with every client on the top rung; registering that
	// claim up front makes the pre-descent phase checked (not vacuous):
	// any degradation observed while the floor is still the top fails
	// the run at the offending op.
	checker.ObserveClaim(-1, ladder[0].Name)
	var engine sim.Engine
	cfg.Spans.SetClock(trace.NewSimClock(func() int64 { return int64(engine.Now() * 1e6) }))
	c := cluster.New(cluster.Config{
		Sites:   cfg.Sites,
		Quorums: quorum.TaxiAssignments(cfg.Sites)["Q1Q2"],
		Base:    specs.PriorityQueue(),
		Fold:    quorum.PQFold(),
		Respond: cluster.PQResponder,
		Metrics: cfg.Metrics,
		Trace:   cfg.Trace,
		Audit:   checker,
		Spans:   cfg.Spans,
	})

	g := sim.NewRNG(cfg.Seed)
	plan := w.Plan(g.Split())
	horizon := w.Horizon() * 1.5

	clients := make([]*cluster.AdaptiveClient, w.Clients)
	for i := range clients {
		clients[i] = c.Adaptive(i%cfg.Sites, ladder, &engine, g.Split())
	}
	applyFaults(c, &engine, plan.Faults)
	if cfg.Faults != (cluster.FaultConfig{}) {
		fp := cluster.NewFaultProcess(c, &engine, g.Split(), cfg.Faults)
		fp.Start()
		engine.At(w.Horizon(), fp.Stop) // repairs still complete before the horizon
	}

	report := &SoakReport{Ops: len(plan.Arrivals)}
	for _, a := range plan.Arrivals {
		a := a
		engine.At(a.At, func() {
			clients[a.Client].Submit(a.Inv, func(_ history.Op, out resilience.Outcome) {
				if out.Err == nil {
					report.Completed++
				} else {
					report.Failed++
				}
			})
		})
	}
	engine.Run(horizon)

	report.Steps = checker.Steps()
	report.Violation = checker.Violation()
	report.Level = checker.Level()
	report.Sets = checker.Current()
	report.FloorClaim = checker.FloorClaim()
	report.MaxFrontier = checker.MaxFrontier()
	report.Samples = checker.Samples()
	report.Observed = c.Observed()
	if report.Violation != nil {
		return report, report.Violation
	}
	if report.Completed+report.Failed != report.Ops {
		return report, fmt.Errorf("relaxcheck: %d of %d submissions unresolved at horizon %g",
			report.Ops-report.Completed-report.Failed, report.Ops, horizon)
	}
	return report, nil
}

// applyFaults schedules a plan's explicit fault events on the engine.
func applyFaults(c *cluster.Cluster, engine *sim.Engine, faults []FaultEvent) {
	for _, f := range faults {
		f := f
		var fn func()
		switch f.Kind {
		case "crash":
			fn = func() { c.Crash(f.Site) }
		case "restore":
			fn = func() { c.Restore(f.Site); c.Gossip() }
		case "partition":
			fn = func() { c.Partition(f.Groups...) }
		case "heal":
			fn = func() { c.Heal(); c.Gossip() }
		default:
			panic(fmt.Sprintf("relaxcheck: unknown fault event %q", f.Kind))
		}
		engine.At(f.At, fn)
	}
}
