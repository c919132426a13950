package cluster

import (
	"errors"
	"fmt"
	"strconv"

	"relaxlattice/internal/history"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/obs/trace"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/resilience"
	"relaxlattice/internal/sim"
)

// Level is one rung of a degradation ladder: a named quorum assignment
// that gates execution. Ladders are ordered strongest first, and each
// rung's name should match a lattice element so post-hoc audits
// (lattice.Relaxation.WeakestAccepting) can confirm that histories
// produced at a rung land at the claimed level.
type Level struct {
	Name    string
	Quorums quorum.Assignment
}

// TaxiLadder returns the canonical degradation ladder of the taxi
// example over n sites, strongest to weakest: Q1Q2 (full FIFO) → Q1
// (enqueue order respected, dequeues may race) → none (any available
// site serves anything). It is a chain through the taxi relaxation
// lattice, skipping the incomparable Q2 element.
func TaxiLadder(n int) []Level {
	a := quorum.TaxiAssignments(n)
	return []Level{
		{Name: "Q1Q2", Quorums: a["Q1Q2"]},
		{Name: "Q1", Quorums: a["Q1"]},
		{Name: "none", Quorums: a["none"]},
	}
}

// ProbeEvery is the mean period, in simulation time, of an adaptive
// client's background probe loop (jittered by resilience.Jitter): while
// degraded, an idle client still re-tests stronger rungs and climbs
// back once faults heal.
const ProbeEvery = 10

// AdaptiveClient wraps a protocol client with the retry policy and a
// degradation controller. Submissions execute under the controller's
// current ladder rung; repeated unavailability pushes the client down
// the ladder (each move recorded as a cluster.episode), sustained
// success probes back up, and a periodic probe loop on the simulation
// engine re-tests stronger rungs while degraded.
type AdaptiveClient struct {
	cl     *Client
	engine *sim.Engine
	rng    *sim.RNG
	ctrl   *resilience.Controller
	levels []Level
}

// Adaptive creates an adaptive client homed at the given site. The
// ladder must be non-empty and every rung must cover the cluster's
// sites (panics otherwise — configuration errors). The recurring probe
// event is scheduled on the engine immediately; the engine's run
// horizon bounds it.
func (c *Cluster) Adaptive(home int, levels []Level, engine *sim.Engine, rng *sim.RNG) *AdaptiveClient {
	if len(levels) == 0 {
		panic("cluster: adaptive client needs a non-empty ladder")
	}
	for i, l := range levels {
		if l.Quorums == nil || l.Quorums.Sites() != c.cfg.Sites {
			panic(fmt.Sprintf("cluster: ladder rung %d (%q) does not cover %d sites", i, l.Name, c.cfg.Sites))
		}
	}
	if engine == nil || rng == nil {
		panic("cluster: adaptive client needs an engine and an RNG")
	}
	a := &AdaptiveClient{
		cl:     c.Client(home),
		engine: engine,
		rng:    rng,
		ctrl:   resilience.NewController(len(levels)),
		levels: append([]Level(nil), levels...),
	}
	engine.Every(
		func() float64 { return a.rng.Jitter(ProbeEvery, resilience.Jitter) },
		func() bool {
			if a.ctrl.Degraded() {
				a.probe("probe", nil)
			}
			return true
		})
	return a
}

// Controller exposes the degradation controller (level, floor,
// descent and ascent counts) for reporting and audits.
func (a *AdaptiveClient) Controller() *resilience.Controller { return a.ctrl }

// Current returns the ladder rung the client executes under right now.
func (a *AdaptiveClient) Current() Level { return a.levels[a.ctrl.Level()] }

// Submit runs one invocation under the adaptive policy: execute at the
// current rung, retry with backoff on unavailability (descending the
// ladder as failure streaks accumulate), and report the terminal
// outcome to done. Retries are scheduled on the engine, so the
// submission completes only as the simulation runs; done receives the
// completed operation (zero on failure) and the retry outcome.
// ErrNoResponse is not retryable: it is a semantic rejection by the
// object, not an availability failure.
func (a *AdaptiveClient) Submit(inv history.Invocation, done func(history.Op, resilience.Outcome)) {
	c := a.cl.c
	var op history.Op
	// The submission's root span covers the whole retry loop; each
	// attempt nests under it, with the backoff gap between consecutive
	// attempts emitted in hindsight as its own child, so the analyzer
	// attributes waiting separately from protocol work. All refs are
	// nil (and no-op) when span tracing is off.
	root := c.cfg.Spans.Begin("cluster.submit",
		obs.KV{K: "op", V: inv.Name},
		obs.KV{K: "client", V: strconv.Itoa(a.cl.id)},
		obs.KV{K: "home", V: strconv.Itoa(a.cl.home)},
		// The rung at submission time: attempts override it for their
		// subtrees when the controller has since moved, so root
		// self-time (scheduling, backoff gaps) stays attributed to the
		// rung the client was on when it queued the op.
		obs.KV{K: "rung", V: a.levels[a.ctrl.Level()].Name},
	)
	var lastEnd int64
	resilience.Do(a.engine, a.rng,
		func(err error) bool { return errors.Is(err, ErrUnavailable) },
		func(n int) error {
			if n > 1 {
				c.cfg.Metrics.Counter("cluster.adaptive.retry").Add(1)
			}
			lvl := a.levels[a.ctrl.Level()]
			att := root.Child("cluster.attempt",
				obs.KV{K: "n", V: strconv.Itoa(n)},
				obs.KV{K: "rung", V: lvl.Name},
			)
			if n > 1 {
				root.EmitChild("cluster.backoff", lastEnd, att.Start(),
					obs.KV{K: "before", V: strconv.Itoa(n)})
			}
			var err error
			op, err = a.cl.ExecuteUnderSpan(inv, lvl.Quorums, lvl.Name, att)
			if err == nil {
				if a.ctrl.OnSuccess() {
					a.probe(inv.Name, att)
				}
				lastEnd = att.End(obs.KV{K: "outcome", V: "ok"})
				return nil
			}
			if errors.Is(err, ErrUnavailable) {
				if to, down := a.ctrl.OnFailure(); down {
					// Every move is a claim that subsequent history is
					// explained by the target rung's lattice level: the
					// audit hears it before the episode is journaled.
					c.observeClaim(a.cl, a.levels[to].Name)
					c.cfg.Metrics.Counter("cluster.adaptive.descend").Add(1)
					c.recordAdaptiveTransition(a.cl, inv.Name, behaviorDescend+a.levels[to].Name)
					d := att.Child("cluster.descend", obs.KV{K: "to", V: a.levels[to].Name})
					d.End()
				}
			}
			lastEnd = att.End(obs.KV{K: "outcome", V: "fail"})
			return err
		},
		func(out resilience.Outcome) {
			c.cfg.Metrics.Histogram("cluster.adaptive.attempts", attemptBounds).Observe(int64(out.Attempts))
			outcome := "ok"
			if out.Err != nil {
				outcome = out.Reason
			}
			root.End(
				obs.KV{K: "attempts", V: strconv.Itoa(out.Attempts)},
				obs.KV{K: "outcome", V: outcome},
			)
			if done != nil {
				done(op, out)
			}
		})
}

// probe asks the controller to re-test stronger rungs, using read-only
// cluster probes as the availability oracle, and records an ascent
// episode when the controller moves up. Its span nests under the
// attempt that triggered it (parent), or roots a new tree for the
// periodic probe loop (nil parent).
func (a *AdaptiveClient) probe(opName string, parent *trace.SpanRef) {
	c := a.cl.c
	sp := parent.Child("cluster.probe", obs.KV{K: "client", V: strconv.Itoa(a.cl.id)})
	if sp == nil {
		sp = c.cfg.Spans.Begin("cluster.probe",
			obs.KV{K: "client", V: strconv.Itoa(a.cl.id)},
			obs.KV{K: "rung", V: a.levels[a.ctrl.Level()].Name})
	}
	to, up := a.ctrl.Probe(func(lvl int) bool {
		ok := c.Probe(a.cl.home, a.levels[lvl].Quorums)
		if ok {
			c.cfg.Metrics.Counter("cluster.adaptive.probe.ok").Add(1)
		} else {
			c.cfg.Metrics.Counter("cluster.adaptive.probe.fail").Add(1)
		}
		return ok
	})
	if up {
		c.observeClaim(a.cl, a.levels[to].Name)
		c.cfg.Metrics.Counter("cluster.adaptive.ascend").Add(1)
		c.recordAdaptiveTransition(a.cl, opName, behaviorAscend+a.levels[to].Name)
		asc := sp.Child("cluster.ascend", obs.KV{K: "to", V: a.levels[to].Name})
		asc.End()
		sp.End(obs.KV{K: "outcome", V: "ascend"})
		return
	}
	sp.End(obs.KV{K: "outcome", V: "hold"})
}
