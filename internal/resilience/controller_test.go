package resilience

import "testing"

func TestControllerDescendsOnFailureStreak(t *testing.T) {
	c := NewController(3)
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
	c := NewController(2)
	c.OnFailure()
	c.OnSuccess()
	if _, down := c.OnFailure(); down {
		t.Fatal("success did not reset the failure streak")
	}
}

// descend drives c down to the given level with failure streaks.
func descend(t *testing.T, c *Controller, level int) {
	t.Helper()
	for c.Level() < level {
		c.OnFailure()
		c.OnFailure()
	}
	if c.Level() != level {
		t.Fatalf("level %d after descending, want %d", c.Level(), level)
	}
}

func TestControllerProbesUpAfterSuccessStreak(t *testing.T) {
	c := NewController(3)
	descend(t, c, 2)
	for i := 1; i < AscendAfter; i++ {
		if c.OnSuccess() {
			t.Fatalf("probe requested after %d successes with AscendAfter=%d", i, AscendAfter)
		}
	}
	if !c.OnSuccess() {
		t.Fatal("no probe requested after the streak")
	}
	// Probe with the levels above unavailable: stay put, streak consumed.
	if lvl, up := c.Probe(func(int) bool { return false }); up || lvl != 2 {
		t.Fatalf("failed probe moved to %d (up=%v)", lvl, up)
	}
	if c.OnSuccess() {
		t.Fatal("streak not consumed by the failed probe")
	}
	// Only the rung directly above answers: ascend one rung.
	if lvl, up := c.Probe(func(l int) bool { return l == 1 }); !up || lvl != 1 {
		t.Fatalf("probe landed at %d (up=%v)", lvl, up)
	}
	if c.Floor() != 2 {
		t.Errorf("floor %d after re-ascent, want 2 (floor is sticky)", c.Floor())
	}
}

func TestControllerHedgedProbeLeapfrogs(t *testing.T) {
	c := NewController(4)
	descend(t, c, 3)
	var probed []int
	lvl, up := c.Probe(func(l int) bool {
		probed = append(probed, l)
		return true
	})
	// Hedge=2: from level 3 the probe reaches level 1, strongest first.
	if !up || lvl != 1 || len(probed) != 1 || probed[0] != 1 {
		t.Fatalf("hedged probe landed at %d (up=%v), probed %v", lvl, up, probed)
	}
	// From level 1 the top is in reach.
	if lvl, up := c.Probe(func(l int) bool { return l == 0 }); !up || lvl != 0 {
		t.Fatalf("second probe landed at %d (up=%v)", lvl, up)
	}
	if c.Descents() != 3 || c.Ascents() != 2 {
		t.Errorf("descents %d, ascents %d", c.Descents(), c.Ascents())
	}
	// At the top, probing is a no-op.
	if _, up := c.Probe(func(int) bool { return true }); up {
		t.Error("probed above the top")
	}
}

// The controller reports each move only by value: OnFailure and Probe
// return (level, true) exactly when the level changed, the level
// returned is the controller's own, and the counts agree with the
// moves returned.
func TestControllerTransitionLog(t *testing.T) {
	c := NewController(3)
	type move struct {
		to   int
		down bool
	}
	var got []move
	record := func(down bool) func(int, bool) {
		return func(lvl int, moved bool) {
			if lvl != c.Level() {
				t.Errorf("reported level %d, controller at %d", lvl, c.Level())
			}
			if moved {
				got = append(got, move{lvl, down})
			}
		}
	}
	for i := 0; i < 4; i++ {
		record(true)(c.OnFailure())
	}
	for !c.OnSuccess() {
	}
	record(false)(c.Probe(func(int) bool { return false }))
	for !c.OnSuccess() {
	}
	record(false)(c.Probe(func(int) bool { return true }))
	want := []move{{1, true}, {2, true}, {0, false}}
	if len(got) != len(want) {
		t.Fatalf("moves %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("move %d = %v, want %v", i, got[i], want[i])
		}
	}
	if c.Descents() != 2 || c.Ascents() != 1 {
		t.Errorf("descents %d, ascents %d; moves %v", c.Descents(), c.Ascents(), got)
	}
}

func TestControllerSingleLevelAndPanics(t *testing.T) {
	c := NewController(1)
	// A single-level ladder never moves.
	for i := 0; i < 10; i++ {
		if _, down := c.OnFailure(); down {
			t.Fatal("single-level controller descended")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("zero levels did not panic")
		}
	}()
	NewController(0)
}
