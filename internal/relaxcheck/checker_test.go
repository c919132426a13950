package relaxcheck

import (
	"strings"
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/value"
)

func TestCheckerExhaustedViolation(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder()
	c := New(core.TaxiSimpleLattice(), Options{
		Metrics: reg,
		Trace:   rec,
	})
	// Phantom dequeue: no taxi lattice element accepts it.
	c.ObserveOp(history.DeqOk(9))
	v := c.Violation()
	if v == nil || v.Kind != KindExhausted || v.Step != 1 {
		t.Fatalf("violation = %+v", v)
	}
	if !strings.Contains(v.Error(), "rejected by every lattice element") {
		t.Fatalf("Error() = %q", v.Error())
	}
	if n, _ := reg.Snapshot().Counter("relaxcheck.violation"); n != 1 {
		t.Fatalf("violation counter = %d", n)
	}
	// The violation is sticky: a later op does not replace it, but
	// still counts in metrics.
	c.ObserveOp(history.Enq(1))
	if got := c.Violation(); got.Step != 1 {
		t.Fatalf("first violation replaced: %+v", got)
	}
	if n, _ := reg.Snapshot().Counter("relaxcheck.violation"); n != 2 {
		t.Fatalf("violation counter after second = %d", n)
	}
	found := false
	for _, e := range rec.Events() {
		if e.Name == "relaxcheck.violation" {
			found = true
			if kind, _ := e.Attr("kind"); kind != KindExhausted {
				t.Fatalf("journaled kind = %q", kind)
			}
		}
	}
	if !found {
		t.Fatal("no relaxcheck.violation event journaled")
	}
}

func TestCheckerClaimViolationOnClaim(t *testing.T) {
	lat := core.TaxiSimpleLattice()
	c := New(lat, Options{Claims: TaxiRungLevels(lat.Universe)})
	// Duplicate delivery: drops the level below the top.
	c.ObserveOp(history.Enq(2))
	c.ObserveOp(history.DeqOk(2))
	c.ObserveOp(history.DeqOk(2))
	if c.Violation() != nil {
		t.Fatalf("violation before any claim: %+v", c.Violation())
	}
	// Claiming the top now is a lie — the history already escaped it.
	c.ObserveClaim(0, "Q1Q2")
	v := c.Violation()
	if v == nil || v.Kind != KindClaim {
		t.Fatalf("violation = %+v", v)
	}
	if !strings.Contains(v.Error(), "escapes claimed level") {
		t.Fatalf("Error() = %q", v.Error())
	}
}

func TestCheckerClaimViolationOnOp(t *testing.T) {
	lat := core.TaxiSimpleLattice()
	c := New(lat, Options{Claims: TaxiRungLevels(lat.Universe)})
	c.ObserveClaim(3, "Q1Q2") // claims the top while it still holds
	c.ObserveOp(history.Enq(2))
	c.ObserveOp(history.DeqOk(2))
	if c.Violation() != nil {
		t.Fatalf("premature violation: %+v", c.Violation())
	}
	c.ObserveOp(history.DeqOk(2)) // duplicate delivery escapes the top
	v := c.Violation()
	if v == nil || v.Kind != KindClaim || v.Step != 3 {
		t.Fatalf("violation = %+v", v)
	}
}

func TestCheckerClaimFloorIsIntersection(t *testing.T) {
	lat := core.TaxiSimpleLattice()
	c := New(lat, Options{Claims: TaxiRungLevels(lat.Universe)})
	c.ObserveClaim(0, "Q1Q2")
	c.ObserveClaim(1, "Q1")
	c.ObserveClaim(0, "Q1Q2") // an ascent does not raise the floor back
	if f := c.FloorClaim(); !strings.HasPrefix(f, "Q1=") {
		t.Fatalf("FloorClaim = %q", f)
	}
	// Duplicate delivery violates Q1 ⊆ level? No: duplicates kill Q2
	// sets; {Q1} stays viable, so the Q1 floor holds.
	c.ObserveOp(history.Enq(2))
	c.ObserveOp(history.DeqOk(2))
	c.ObserveOp(history.DeqOk(2))
	if c.Violation() != nil {
		t.Fatalf("Q1 floor violated by a Q1-legal history: %+v", c.Violation())
	}
	// A phantom op kills the entire lattice — exhausted beats claim.
	c.ObserveOp(history.DeqOk(9))
	if v := c.Violation(); v == nil || v.Kind != KindExhausted {
		t.Fatalf("violation = %+v", v)
	}
}

// TestCheckerInterleavedMultiClientClaims drives claims from three
// clients interleaved with operations: the floor is the running
// intersection across *all* clients, one client re-asserting a strong
// rung cannot raise it back while another client's weaker claim
// stands, and each registration is journaled with its client id.
func TestCheckerInterleavedMultiClientClaims(t *testing.T) {
	lat := core.TaxiSimpleLattice()
	rec := obs.NewRecorder()
	c := New(lat, Options{Claims: TaxiRungLevels(lat.Universe), Trace: rec})

	c.ObserveClaim(0, "Q1Q2")
	c.ObserveOp(history.Enq(1))
	c.ObserveOp(history.DeqOk(1))
	if f := c.FloorClaim(); !strings.HasPrefix(f, "Q1Q2=") {
		t.Fatalf("FloorClaim after top claim = %q", f)
	}

	// A second client descends mid-stream: the floor drops to the
	// intersection even though client 0's claim is still standing.
	c.ObserveClaim(1, "Q1")
	if f := c.FloorClaim(); !strings.HasPrefix(f, "Q1=") {
		t.Fatalf("FloorClaim after interleaved descent = %q", f)
	}

	// Client 0 re-asserts the top between operations: the floor is an
	// intersection, so one client ascending cannot outvote the weaker
	// standing claim.
	c.ObserveOp(history.Enq(2))
	c.ObserveClaim(0, "Q1Q2")
	if f := c.FloorClaim(); !strings.HasPrefix(f, "Q1=") {
		t.Fatalf("FloorClaim after one-client ascent = %q", f)
	}

	// Duplicate delivery escapes the top rung but satisfies Q1: legal
	// under the multi-client floor.
	c.ObserveOp(history.DeqOk(2))
	c.ObserveOp(history.DeqOk(2))
	if c.Violation() != nil {
		t.Fatalf("Q1 floor violated by a Q1-legal history: %+v", c.Violation())
	}

	// A third client dropping to the bottom rung empties the floor:
	// everything is covered from here on.
	c.ObserveClaim(2, "none")
	if f := c.FloorClaim(); !strings.HasPrefix(f, "none=") {
		t.Fatalf("FloorClaim after bottom claim = %q", f)
	}
	c.ObserveOp(history.DeqOk(1))
	if c.Violation() != nil {
		t.Fatalf("empty floor still violated: %+v", c.Violation())
	}

	// Every registration journaled, in order, with its client id.
	var clients []string
	for _, e := range rec.Events() {
		if e.Name == "relaxcheck.claim" {
			id, _ := e.Attr("client")
			clients = append(clients, id)
		}
	}
	if got, want := strings.Join(clients, ","), "0,1,0,2"; got != want {
		t.Fatalf("journaled claim clients = %q, want %q", got, want)
	}
}

// TestCheckerStickyClaimViolationOrdering pins the converse ordering
// of TestCheckerExhaustedViolation: when a claim violation lands
// first, a later lattice exhaustion does not replace it — the first
// verdict is the one the run is judged by — while the metrics keep
// counting every subsequent violation.
func TestCheckerStickyClaimViolationOrdering(t *testing.T) {
	lat := core.TaxiSimpleLattice()
	reg := obs.NewRegistry()
	c := New(lat, Options{
		Claims:  TaxiRungLevels(lat.Universe),
		Metrics: reg,
	})
	// Escape the top rung first (duplicate delivery), then claim it.
	c.ObserveOp(history.Enq(2))
	c.ObserveOp(history.DeqOk(2))
	c.ObserveOp(history.DeqOk(2))
	c.ObserveClaim(0, "Q1Q2")
	v := c.Violation()
	if v == nil || v.Kind != KindClaim || v.Step != 3 {
		t.Fatalf("claim violation = %+v", v)
	}

	// A phantom op exhausts the whole lattice — a strictly worse
	// verdict, but the first violation is sticky.
	c.ObserveOp(history.DeqOk(9))
	if got := c.Violation(); got.Kind != KindClaim || got.Step != 3 {
		t.Fatalf("first violation replaced by later exhaustion: %+v", got)
	}

	// Another client repeating the broken claim counts in metrics but
	// changes nothing else.
	c.ObserveClaim(1, "Q1Q2")
	if got := c.Violation(); got.Kind != KindClaim || got.Step != 3 {
		t.Fatalf("first violation replaced by repeated claim: %+v", got)
	}
	if n, _ := reg.Snapshot().Counter("relaxcheck.violation"); n != 3 {
		t.Fatalf("violation counter = %d, want 3 (claim, exhaustion, repeated claim)", n)
	}
}

func TestCheckerUnknownClaimPanics(t *testing.T) {
	lat := core.TaxiSimpleLattice()
	c := New(lat, Options{Claims: TaxiRungLevels(lat.Universe)})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown claim level did not panic")
		}
	}()
	c.ObserveClaim(0, "Q9")
}

func TestCheckerMetricsAndSamples(t *testing.T) {
	reg := obs.NewRegistry()
	lat := core.TaxiSimpleLattice()
	c := New(lat, Options{Metrics: reg, SampleEvery: 2})
	h := history.History{history.Enq(1), history.Enq(2), history.DeqOk(2), history.DeqOk(1)}
	for _, op := range h {
		c.ObserveOp(op)
	}
	if n, _ := reg.Snapshot().Counter("relaxcheck.step"); n != 4 {
		t.Fatalf("step counter = %d", n)
	}
	if g, ok := reg.Snapshot().Gauge("relaxcheck.frontier.max"); !ok || g < 1 {
		t.Fatalf("frontier.max gauge = %d (ok=%v)", g, ok)
	}
	samples := c.Samples()
	if len(samples) != 2 || samples[0].Step != 2 || samples[1].Step != 4 {
		t.Fatalf("samples = %+v", samples)
	}
	if c.Steps() != 4 {
		t.Fatalf("Steps = %d", c.Steps())
	}
	if c.Level() == "" || c.Level() == "⊥" {
		t.Fatalf("Level = %q", c.Level())
	}
}

func TestCheckerLevelJournal(t *testing.T) {
	rec := obs.NewRecorder()
	lat := core.TaxiSimpleLattice()
	c := New(lat, Options{Trace: rec})
	// PQ-legal prefix: no level change events.
	c.ObserveOp(history.Enq(1))
	c.ObserveOp(history.DeqOk(1))
	for _, e := range rec.Events() {
		if e.Name == "relaxcheck.level" {
			t.Fatalf("level event on an undegraded run: %+v", e)
		}
	}
	// Duplicate delivery: the level drops, and exactly one event records it.
	c.ObserveOp(history.Enq(2))
	c.ObserveOp(history.DeqOk(2))
	c.ObserveOp(history.DeqOk(2))
	levels := 0
	for _, e := range rec.Events() {
		if e.Name == "relaxcheck.level" {
			levels++
		}
	}
	if levels != 1 {
		t.Fatalf("%d level events, want 1", levels)
	}
}

// growAuto is a deliberately nondeterministic test automaton: each
// "Grow" op forks every state n into n and n+1000 (states are account
// balances), and "Die" rejects. The spooler lattices keep singleton
// frontiers; this one gives the checker a frontier that grows.
type growAuto struct{}

func (growAuto) Name() string      { return "Grow" }
func (growAuto) Init() value.Value { return value.Account{Balance: 0} }
func (g growAuto) Step(s value.Value, op history.Op) []value.Value {
	n := s.(value.Account).Balance
	switch op.Name {
	case "Grow":
		return []value.Value{value.Account{Balance: n}, value.Account{Balance: n + 1000}}
	case "Die":
		return nil
	}
	return []value.Value{s}
}

func growLattice() *lattice.Relaxation {
	u := lattice.NewUniverse(lattice.Constraint{Name: "G", Desc: "growth bound"})
	return &lattice.Relaxation{
		Name:     "GrowLattice",
		Universe: u,
		Phi: func(s lattice.Set) (automaton.Automaton, bool) {
			if s != u.All() {
				return nil, false // φ defined only at ⊤: a one-element domain
			}
			return growAuto{}, true
		},
	}
}

// TestCheckerExhaustedAfterFrontierGrowth: a frontier that grew 1→2→3
// states still dies as a whole, and the checker reports exhaustion at
// exactly the op that killed its last state.
func TestCheckerExhaustedAfterFrontierGrowth(t *testing.T) {
	grow := history.MakeOp("Grow", nil, history.Ok, nil)
	die := history.MakeOp("Die", nil, history.Ok, nil)
	c := New(growLattice(), Options{})
	c.ObserveOp(grow)
	c.ObserveOp(grow)
	if c.MaxFrontier() != 3 || c.Violation() != nil {
		t.Fatalf("after two Grows: maxfrontier=%d violation=%v, want 3 and none", c.MaxFrontier(), c.Violation())
	}
	c.ObserveOp(die)
	v := c.Violation()
	if v == nil || v.Kind != KindExhausted || v.Step != 3 {
		t.Fatalf("violation = %v, want exhausted at step 3", v)
	}
}
