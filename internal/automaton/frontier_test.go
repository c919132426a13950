package automaton

import (
	"testing"

	"relaxlattice/internal/history"
)

// feedBoth drives a frontier and the offline replay in lockstep,
// asserting after every operation that the frontier's state set equals
// StatesAfter of the prefix.
func feedBoth(t *testing.T, a Automaton, h history.History) {
	t.Helper()
	f := NewFrontier(a)
	for i, op := range h {
		alive := f.Step(op)
		prefix := h[:i+1]
		want := StatesAfter(a, prefix)
		if alive != (len(want) > 0) {
			t.Fatalf("step %d (%v): frontier alive=%v, offline has %d states", i+1, op, alive, len(want))
		}
		if setKey(f.States()) != setKey(want) {
			t.Fatalf("step %d (%v): frontier states %v, offline %v", i+1, op, f.States(), want)
		}
		if f.Size() != len(want) {
			t.Fatalf("step %d: Size=%d, offline %d", i+1, f.Size(), len(want))
		}
		if !alive {
			return
		}
	}
}

func TestFrontierMatchesStatesAfter(t *testing.T) {
	histories := []history.History{
		{},
		{history.Credit(5), history.DebitOk(2)},
		{history.Credit(1), history.DebitOk(2)}, // rejected at step 2
		{history.DebitOk(1)},                    // rejected immediately
	}
	for _, h := range histories {
		feedBoth(t, counter(), h)
	}
}

func TestFrontierNondeterministicGrowth(t *testing.T) {
	// chaos forks into two states per Enq; the frontier must carry the
	// whole powerset element, not a single path.
	h := history.History{history.Enq(1), history.Enq(1), history.Enq(1)}
	feedBoth(t, chaos(), h)
	f := NewFrontier(chaos())
	for _, op := range h {
		if !f.Step(op) {
			t.Fatalf("chaos died on %v", op)
		}
	}
	if f.Size() < 2 {
		t.Fatalf("expected a forked frontier, got size %d", f.Size())
	}
}

func TestFrontierDeadIsPermanent(t *testing.T) {
	f := NewFrontier(counter())
	if f.Step(history.DebitOk(1)) {
		t.Fatal("overdraft accepted")
	}
	// Prefix-closed: no later operation revives it.
	if f.Step(history.Credit(10)) {
		t.Fatal("dead frontier revived")
	}
	if f.Size() != 0 {
		t.Fatalf("dead frontier size = %d", f.Size())
	}
}
