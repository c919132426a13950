package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/resilience"
	"relaxlattice/internal/sim"
	"relaxlattice/internal/specs"
)

// adaptiveHarness is a 5-site taxi cluster with metrics, tracing, and
// an adaptive client on the canonical ladder.
func adaptiveHarness(t *testing.T) (*Cluster, *AdaptiveClient, *sim.Engine, *obs.Registry, *obs.Recorder) {
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
	engine := &sim.Engine{}
	a := c.Adaptive(0, TaxiLadder(5), engine, sim.NewRNG(7))
	return c, a, engine, reg, rec
}

func submitAndRun(t *testing.T, a *AdaptiveClient, engine *sim.Engine, inv history.Invocation, horizon float64) (history.Op, resilience.Outcome) {
	t.Helper()
	var op history.Op
	var out resilience.Outcome
	called := false
	a.Submit(inv, func(o history.Op, res resilience.Outcome) {
		op, out, called = o, res, true
	})
	engine.Run(horizon)
	if !called {
		t.Fatalf("submission of %s did not complete by t=%v", inv, horizon)
	}
	return op, out
}

func TestAdaptiveDescendsUnderFaultsAndRecovers(t *testing.T) {
	c, a, engine, reg, rec := adaptiveHarness(t)

	// Healthy: executes at the top rung, no retries.
	op, out := submitAndRun(t, a, engine, history.EnqInv(9), 1)
	if out.Err != nil || out.Attempts != 1 || a.Current().Name != "Q1Q2" {
		t.Fatalf("healthy submit: op=%v out=%+v level=%s", op, out, a.Current().Name)
	}

	// Crash three sites: two up. Q1Q2 loses both quorums; Q1 still
	// lacks Enq's final quorum (4 of 5); "none" serves anything.
	c.Crash(2)
	c.Crash(3)
	c.Crash(4)
	_, out = submitAndRun(t, a, engine, history.EnqInv(4), 100)
	if out.Err != nil {
		t.Fatalf("degraded submit failed: %+v", out)
	}
	if out.Attempts != 5 {
		t.Errorf("attempts = %d, want 5 (two failures per rung above none)", out.Attempts)
	}
	floor := func() string { return TaxiLadder(5)[a.Controller().Floor()].Name }
	if a.Current().Name != "none" || floor() != "none" {
		t.Errorf("level=%s floor=%s, want none/none", a.Current().Name, floor())
	}
	if !a.Controller().Degraded() {
		t.Error("controller not degraded after descents")
	}

	// Faults heal; the periodic probe loop climbs back to the top
	// (Hedge=2 lets it leapfrog Q1 when Q1Q2 answers).
	c.Restore(2)
	c.Restore(3)
	c.Restore(4)
	engine.Run(200)
	if a.Current().Name != "Q1Q2" {
		t.Fatalf("level after heal = %s, want Q1Q2", a.Current().Name)
	}
	if floor() != "none" {
		t.Errorf("floor after heal = %s, want none (floor is sticky)", floor())
	}
	if d, asc := a.Controller().Descents(), a.Controller().Ascents(); d != 2 || asc < 1 {
		t.Errorf("descents=%d ascents=%d", d, asc)
	}

	// And the recovered client serves at the preferred rung again.
	if _, out = submitAndRun(t, a, engine, history.DeqInv(), 300); out.Err != nil || out.Attempts != 1 {
		t.Errorf("post-heal Deq: %+v", out)
	}

	// Metrics: retries, descents, ascents, and probes all surfaced.
	snap := reg.Snapshot()
	for _, name := range []string{
		"cluster.adaptive.retry", "cluster.adaptive.descend",
		"cluster.adaptive.ascend", "cluster.adaptive.probe.ok",
	} {
		if v, ok := snap.Counter(name); !ok || v == 0 {
			t.Errorf("metric %s = %d (present=%v), want > 0", name, v, ok)
		}
	}

	// The journal carries the controller's lattice moves as episodes.
	var behaviors []string
	for _, e := range rec.Events() {
		if e.Name != "cluster.episode" {
			continue
		}
		if b, ok := e.Attr("behavior"); ok && strings.HasPrefix(b, "adaptive-") {
			behaviors = append(behaviors, b)
		}
	}
	want := []string{"adaptive-descend:Q1", "adaptive-descend:none", "adaptive-ascend:Q1Q2"}
	if len(behaviors) < len(want) {
		t.Fatalf("adaptive episodes %v, want at least %v", behaviors, want)
	}
	for i, w := range want {
		if behaviors[i] != w {
			t.Errorf("episode %d = %s, want %s", i, behaviors[i], w)
		}
	}
}

func TestAdaptiveDoesNotRetryNoResponse(t *testing.T) {
	_, a, engine, _, _ := adaptiveHarness(t)
	// Deq on an empty queue is a semantic rejection, not unavailability:
	// one attempt, no descent.
	_, out := submitAndRun(t, a, engine, history.DeqInv(), 100)
	if !errors.Is(out.Err, ErrNoResponse) || out.Attempts != 1 || out.Reason != resilience.ReasonNonRetryable {
		t.Fatalf("outcome %+v", out)
	}
	if a.Controller().Degraded() {
		t.Error("semantic rejection degraded the client")
	}
}

func TestAdaptivePanicsOnBadLadder(t *testing.T) {
	c := taxiCluster(t, 5, "Q1Q2")
	engine := &sim.Engine{}
	rng := sim.NewRNG(1)
	for _, tc := range []struct {
		name   string
		levels []Level
	}{
		{"empty ladder", nil},
		{"wrong site count", []Level{{Name: "small", Quorums: quorum.Majority(3, history.NameEnq)}}},
		{"nil assignment", []Level{{Name: "nil"}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			c.Adaptive(0, tc.levels, engine, rng)
		}()
	}
}

// Executing under an explicit rung (ExecuteUnder) gates availability by
// the rung, never by the cluster's preferred assignment, and stamps
// episodes with the rung's label.
func TestExecuteUnderGatesByLevel(t *testing.T) {
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
	cl := c.Client(0)
	weak := quorum.TaxiAssignments(5)["none"]
	if _, err := cl.ExecuteUnder(history.EnqInv(3), weak, "none"); err != nil {
		t.Fatalf("ExecuteUnder healthy: %v", err)
	}
	// Down to one site: the preferred assignment is hopeless, the weak
	// rung still serves. Degrade stays false — the rung is the gate.
	c.Crash(1)
	c.Crash(2)
	c.Crash(3)
	c.Crash(4)
	if _, err := cl.Execute(history.DeqInv()); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("preferred Execute on 1 site: %v", err)
	}
	op, err := cl.ExecuteUnder(history.DeqInv(), weak, "none")
	if err != nil || op.Res[0] != 3 {
		t.Fatalf("weak-rung Deq: op=%v err=%v", op, err)
	}
	// The level label reaches the journal.
	found := false
	for _, e := range rec.Events() {
		if b, ok := e.Attr("behavior"); ok && b == "level:none" {
			found = true
		}
	}
	if !found {
		t.Error("no level:none episode recorded")
	}
	// A rung over the wrong number of sites is rejected up front.
	defer func() {
		if recover() == nil {
			t.Error("mismatched gate did not panic")
		}
	}()
	_, _ = cl.ExecuteUnder(history.DeqInv(), quorum.Majority(3, history.NameDeq), "bad")
}

// ExecuteUnder runs the protocol gated by an alternative quorum
// assignment — one rung of a degradation ladder. The gate decides
// availability (and, failing it, the operation is rejected with
// ErrUnavailable regardless of cl.Degrade); the protocol itself still
// uses every reachable site, so any superset of a gate quorum serves
// as that quorum. Episodes record behavior "level:<label>", while the
// constraint set is still rendered against the cluster's configured
// assignment, keeping episode streams from adaptive and plain clients
// comparable.
func (cl *Client) ExecuteUnder(inv history.Invocation, gate quorum.Assignment, label string) (history.Op, error) {
	if gate.Sites() != len(cl.c.logs) {
		panic(fmt.Sprintf("cluster: gate assignment over %d sites, cluster has %d", gate.Sites(), len(cl.c.logs)))
	}
	return cl.c.execute(cl, inv, gate, label, nil)
}

// claimJournal is an audit that writes every ladder claim into the
// cluster's own journal, so a test can read claims and episodes in one
// order.
type claimJournal struct{ rec *obs.Recorder }

func (claimJournal) ObserveOp(history.Op) {}

func (j claimJournal) ObserveClaim(client int, level string) {
	j.rec.Record(0, "test.claim",
		obs.KV{K: "client", V: strconv.Itoa(client)},
		obs.KV{K: "level", V: level})
}

// Every ladder move reaches the audit exactly once, just before its
// episode is journaled: each adaptive-descend:<rung> /
// adaptive-ascend:<rung> episode is immediately preceded by one claim
// of that rung by the same client, and no claim stands anywhere else.
func TestAdaptiveMovesReachAuditOnceInJournalOrder(t *testing.T) {
	rec := obs.NewRecorder()
	c := New(Config{
		Sites:   5,
		Quorums: quorum.TaxiAssignments(5)["Q1Q2"],
		Base:    specs.PriorityQueue(),
		Fold:    quorum.PQFold(),
		Respond: PQResponder,
		Trace:   rec,
		Audit:   claimJournal{rec},
	})
	g := sim.NewRNG(1987)
	var engine sim.Engine
	clients := make([]*AdaptiveClient, 3)
	for i := range clients {
		clients[i] = c.Adaptive(i, TaxiLadder(5), &engine, g.Split())
	}
	fp := NewFaultProcess(c, &engine, g.Split(), FaultConfig{MTTF: 60, MTTR: 8, MTBP: 150, PartitionDwell: 12})
	fp.Start()
	engine.At(150, fp.Stop)
	at := 0.0
	for i := 0; i < 240; i++ {
		at += g.Exp(0.6)
		inv := history.DeqInv()
		if i%3 != 2 {
			inv = history.EnqInv(1 + g.Intn(9))
		}
		a := clients[i%len(clients)]
		engine.At(at, func() { a.Submit(inv, nil) })
	}
	engine.Run(400)

	events := rec.Events()
	moves := 0
	for i, e := range events {
		behavior, _ := e.Attr("behavior")
		rung, isMove := strings.CutPrefix(behavior, "adaptive-descend:")
		if !isMove {
			rung, isMove = strings.CutPrefix(behavior, "adaptive-ascend:")
		}
		if e.Name == "test.claim" {
			next := obs.Event{}
			if i+1 < len(events) {
				next = events[i+1]
			}
			if b, _ := next.Attr("behavior"); !strings.HasPrefix(b, "adaptive-") {
				t.Errorf("event %d: claim %v not followed by a ladder episode (next %v)", i, e.Attrs, next)
			}
			continue
		}
		if e.Name != "cluster.episode" || !isMove {
			continue
		}
		moves++
		if i == 0 || events[i-1].Name != "test.claim" {
			t.Errorf("event %d: %s has no claim just before it", i, behavior)
			continue
		}
		claim := events[i-1]
		level, _ := claim.Attr("level")
		cc, _ := claim.Attr("client")
		ec, _ := e.Attr("client")
		if level != rung || cc != ec {
			t.Errorf("event %d: %s by client %s preceded by claim of %s by client %s", i, behavior, ec, level, cc)
		}
	}
	descents, ascents := 0, 0
	for _, a := range clients {
		descents += a.Controller().Descents()
		ascents += a.Controller().Ascents()
	}
	if moves != descents+ascents || descents == 0 || ascents == 0 {
		t.Errorf("%d ladder episodes for %d descents and %d ascents; the run must move both ways", moves, descents, ascents)
	}
}
