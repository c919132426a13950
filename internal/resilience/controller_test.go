package resilience

import "testing"

func TestControllerDescendsOnFailureStreak(t *testing.T) {
	c := NewController(ControllerConfig{Levels: 3, DescendAfter: 2, AscendAfter: 3})
	if c.Level() != 0 || c.Degraded() {
		t.Fatalf("fresh controller at level %d", c.Level())
	}
	if _, down := c.OnFailure(); down {
		t.Fatal("descended after one failure with DescendAfter=2")
	}
	lvl, down := c.OnFailure()
	if !down || lvl != 1 || !c.Degraded() {
		t.Fatalf("second failure: level %d, down=%v", lvl, down)
	}
	// The streak resets after a descent.
	if _, down := c.OnFailure(); down {
		t.Fatal("descended after a single post-descent failure")
	}
	if lvl, down := c.OnFailure(); !down || lvl != 2 {
		t.Fatalf("fourth failure: level %d, down=%v", lvl, down)
	}
	// The bottom is sticky.
	for i := 0; i < 5; i++ {
		if _, down := c.OnFailure(); down {
			t.Fatal("descended below the bottom")
		}
	}
	if c.Floor() != 2 || c.Descents() != 2 || c.Ascents() != 0 {
		t.Errorf("floor %d, descents %d, ascents %d", c.Floor(), c.Descents(), c.Ascents())
	}
}

func TestControllerSuccessInterruptsFailureStreak(t *testing.T) {
	c := NewController(ControllerConfig{Levels: 2, DescendAfter: 2})
	c.OnFailure()
	c.OnSuccess()
	if _, down := c.OnFailure(); down {
		t.Fatal("success did not reset the failure streak")
	}
}

func TestControllerProbesUpAfterSuccessStreak(t *testing.T) {
	c := NewController(ControllerConfig{Levels: 3, DescendAfter: 1, AscendAfter: 2, Hedge: 1})
	c.OnFailure() // → 1
	c.OnFailure() // → 2
	if c.Level() != 2 {
		t.Fatalf("level %d after two descents", c.Level())
	}
	if c.OnSuccess() {
		t.Fatal("probe requested after a single success with AscendAfter=2")
	}
	if !c.OnSuccess() {
		t.Fatal("no probe requested after the streak")
	}
	// Probe with the level above unavailable: stay put, streak consumed.
	if lvl, up := c.Probe(func(int) bool { return false }); up || lvl != 2 {
		t.Fatalf("failed probe moved to %d (up=%v)", lvl, up)
	}
	if c.OnSuccess() {
		t.Fatal("streak not consumed by the failed probe")
	}
	c.OnSuccess()
	// Now the level above answers: ascend one rung (Hedge=1).
	if lvl, up := c.Probe(func(l int) bool { return l == 1 }); !up || lvl != 1 {
		t.Fatalf("probe landed at %d (up=%v)", lvl, up)
	}
	if c.Floor() != 2 {
		t.Errorf("floor %d after re-ascent, want 2 (floor is sticky)", c.Floor())
	}
}

func TestControllerHedgedProbeLeapfrogs(t *testing.T) {
	c := NewController(ControllerConfig{Levels: 4, DescendAfter: 1, Hedge: 3})
	c.OnFailure()
	c.OnFailure()
	c.OnFailure() // level 3
	var probed []int
	lvl, up := c.Probe(func(l int) bool {
		probed = append(probed, l)
		return l == 0 // the preferred quorums are back
	})
	if !up || lvl != 0 {
		t.Fatalf("hedged probe landed at %d (up=%v)", lvl, up)
	}
	if len(probed) != 1 || probed[0] != 0 {
		t.Fatalf("probe order %v, want strongest first", probed)
	}
	if c.Descents() != 3 || c.Ascents() != 1 {
		t.Errorf("descents %d, ascents %d", c.Descents(), c.Ascents())
	}
	// At the top, probing is a no-op.
	if _, up := c.Probe(func(int) bool { return true }); up {
		t.Error("probed above the top")
	}
}

func TestControllerTransitionLog(t *testing.T) {
	var got []Transition
	c := NewController(ControllerConfig{Levels: 2, DescendAfter: 1,
		Watcher: func(tr Transition) { got = append(got, tr) }})
	c.OnFailure()
	c.Probe(func(int) bool { return true })
	want := []Transition{{From: 0, To: 1, Reason: "descend"}, {From: 1, To: 0, Reason: "ascend"}}
	if len(got) != len(want) {
		t.Fatalf("transitions %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("transition %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// The Watcher hook fires synchronously on every recorded transition —
// and only on transitions, so an observer (like the soak harness's
// claim cross-check) sees exactly the ladder moves, at the moment the
// controller's own state already reflects them.
func TestControllerWatcherSeesEveryTransition(t *testing.T) {
	var seen []Transition
	var levelAtCall []int
	var c *Controller
	c = NewController(ControllerConfig{
		Levels:       3,
		DescendAfter: 2,
		AscendAfter:  2,
		Watcher: func(tr Transition) {
			seen = append(seen, tr)
			levelAtCall = append(levelAtCall, c.Level())
		},
	})
	// One failure short of a streak: no call.
	c.OnFailure()
	if len(seen) != 0 {
		t.Fatalf("watcher fired without a transition: %v", seen)
	}
	c.OnFailure() // descend 0→1
	c.OnFailure()
	c.OnFailure() // descend 1→2
	c.OnSuccess()
	if !c.OnSuccess() {
		t.Fatal("no probe signal after success streak")
	}
	c.Probe(func(int) bool { return true }) // ascend 2→0 (hedge default 1 → to 1)
	want := []Transition{
		{From: 0, To: 1, Reason: "descend"},
		{From: 1, To: 2, Reason: "descend"},
		{From: 2, To: 1, Reason: "ascend"},
	}
	if len(seen) != len(want) {
		t.Fatalf("watcher saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("watcher call %d = %v, want %v", i, seen[i], want[i])
		}
		// Synchronous and post-state: the controller already sits at To.
		if levelAtCall[i] != want[i].To {
			t.Errorf("call %d saw level %d, want %d", i, levelAtCall[i], want[i].To)
		}
	}
	// The watcher stream and the counts agree.
	if c.Descents() != 2 || c.Ascents() != 1 {
		t.Errorf("descents %d, ascents %d; watcher saw %v", c.Descents(), c.Ascents(), seen)
	}
	// A failed probe records (and reports) nothing.
	before := len(seen)
	c.OnSuccess()
	c.OnSuccess()
	c.Probe(func(int) bool { return false })
	if len(seen) != before {
		t.Fatalf("watcher fired on a failed probe: %v", seen[before:])
	}
}

func TestControllerConfigDefaultsAndPanics(t *testing.T) {
	c := NewController(ControllerConfig{Levels: 1})
	cfg := c.Config()
	if cfg.DescendAfter != 2 || cfg.AscendAfter != 6 || cfg.Hedge != 1 {
		t.Errorf("defaults not filled: %+v", cfg)
	}
	// A single-level ladder never moves.
	for i := 0; i < 10; i++ {
		if _, down := c.OnFailure(); down {
			t.Fatal("single-level controller descended")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Levels=0 did not panic")
		}
	}()
	NewController(ControllerConfig{})
}

// Config returns the effective (default-filled) configuration.
func (c *Controller) Config() ControllerConfig { return c.cfg }
