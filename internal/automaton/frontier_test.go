package automaton_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/specs"
	"relaxlattice/internal/value"
)

func keysOf(states []value.Value) string {
	keys := make([]string, len(states))
	for i, s := range states {
		keys[i] = s.Key()
	}
	return strings.Join(keys, "|")
}

// feedBoth drives a frontier and the offline replay in lockstep. It
// compares the state sets after every operation, and again with the
// frontier's states read only every fourth operation, so that owned
// states are also updated in place several steps running. Stepping
// must change no state the frontier does not own: a.Init(), a States()
// slice taken earlier, or a state passed to Step or PostHolds.
func feedBoth(t *testing.T, a automaton.Automaton, h history.History) {
	t.Helper()
	for _, every := range []int{1, 4} {
		initKey := a.Init().Key()
		f := automaton.NewFrontier(a)
		var taken [][]value.Value
		var takenKeys []string
		for i, op := range h {
			checkStepLeavesStates(t, a, automaton.StatesAfter(a, h[:i]), op)
			alive := f.Step(op)
			want := automaton.StatesAfter(a, h[:i+1])
			if alive != (len(want) > 0) {
				t.Fatalf("%s step %d (%v): frontier alive=%v, offline has %d states", a.Name(), i+1, op, alive, len(want))
			}
			if f.Size() != len(want) {
				t.Fatalf("%s step %d: Size=%d, offline %d", a.Name(), i+1, f.Size(), len(want))
			}
			if a.Init().Key() != initKey {
				t.Fatalf("%s step %d: Init() changed from %s to %s", a.Name(), i+1, initKey, a.Init().Key())
			}
			if (i+1)%every == 0 || i == len(h)-1 || !alive {
				got := f.States()
				if keysOf(got) != keysOf(want) {
					t.Fatalf("%s step %d (%v): frontier states %v, offline %v", a.Name(), i+1, op, got, want)
				}
				taken, takenKeys = append(taken, got), append(takenKeys, keysOf(got))
			}
			for j, states := range taken {
				if keysOf(states) != takenKeys[j] {
					t.Fatalf("%s step %d: a States() slice taken earlier changed from %s to %s", a.Name(), i+1, takenKeys[j], keysOf(states))
				}
			}
			if !alive {
				break
			}
		}
	}
}

// checkStepLeavesStates asserts that Step and PostHolds leave the
// states they are given unchanged.
func checkStepLeavesStates(t *testing.T, a automaton.Automaton, states []value.Value, op history.Op) {
	t.Helper()
	spec, _ := a.(*automaton.Spec)
	for _, s := range states {
		before := s.Key()
		next := a.Step(s, op)
		if spec != nil {
			for _, s2 := range next {
				if !spec.PostHolds(s, op, s2) {
					t.Fatalf("%s: PostHolds(%v, %v, %v) false for a successor Step returned", a.Name(), s, op, s2)
				}
			}
			spec.PostHolds(s, op, s)
		}
		if s.Key() != before {
			t.Fatalf("%s: stepping %v changed the given state from %s to %s", a.Name(), op, before, s.Key())
		}
	}
}

// fork is nondeterministic: Enq(e) moves to one of two states.
func fork() *automaton.Spec {
	return automaton.NewSpec("fork", value.NewAccount(0),
		automaton.OpSpec{
			Name: history.NameEnq,
			Succ: func(s value.Value, op history.Op) []value.Value {
				b := s.(value.Account).Balance
				return []value.Value{value.NewAccount(b + 1), value.NewAccount(b + 2)}
			},
		},
	)
}

// resetTo is the one state seeded's Reset returns, shared by every
// frontier that steps through it.
var resetTo = value.EmptyBag().Ins(7)

// reset is a Reset()/Ok() execution.
var reset = history.MakeOp("Reset", nil, history.Ok, nil)

// seeded is a bag automaton whose initial state is not empty, so a
// frontier that updated a.Init() in place would change its Key. Its
// Reset is a Succ operation that returns one shared state, so the
// frontier that updated a state Succ returned would change resetTo.
func seeded() *automaton.Spec {
	return automaton.NewSpec("seeded", value.EmptyBag().Ins(5).Ins(5),
		automaton.OpSpec{
			Name: reset.Name,
			Succ: func(value.Value, history.Op) []value.Value { return []value.Value{resetTo} },
		},
		automaton.OpSpec{
			Name: history.NameEnq,
			Apply: func(s value.Value, op history.Op) bool {
				s.(value.Bag).Add(value.Elem(op.Args[0]))
				return true
			},
		},
		automaton.OpSpec{
			Name: history.NameDeq,
			Apply: func(s value.Value, op history.Op) bool {
				return len(op.Res) == 1 && s.(value.Bag).Remove(value.Elem(op.Res[0]))
			},
		},
	)
}

// taxiAutomata are the four automata of the taxi lattice, whose
// operations step in place.
func taxiAutomata() []*automaton.Spec {
	return []*automaton.Spec{
		specs.PriorityQueue(),
		specs.MultiPriorityQueue(),
		specs.OutOfOrderQueue(),
		specs.DegeneratePriorityQueue(),
	}
}

// malformedOps are executions every taxi automaton rejects: the wrong
// arity, a termination other than Ok, and an unknown operation.
func malformedOps() []history.Op {
	return []history.Op{
		history.MakeOp(history.NameEnq, []int{1, 2}, history.Ok, nil),
		history.MakeOp(history.NameEnq, []int{1}, history.Ok, []int{1}),
		history.MakeOp(history.NameEnq, []int{1}, history.Over, nil),
		history.MakeOp(history.NameDeq, nil, history.Ok, nil),
		history.MakeOp(history.NameDeq, []int{1}, history.Ok, []int{1}),
		history.MakeOp(history.NameDeq, nil, history.Over, []int{1}),
		history.MakeOp("Peek", nil, history.Ok, []int{1}),
	}
}

// randomQueueHistory draws n operations over elements 1..3, each a Deq
// of a present element with probability ½: of the best one when best
// is set (legal for every taxi automaton), else of any (legal for the
// bag, and often for the stronger automata too).
func randomQueueHistory(rng *rand.Rand, n int, best bool) history.History {
	var h history.History
	q := value.EmptyBag()
	for len(h) < n {
		if elems := q.Elems(); len(elems) > 0 && rng.Intn(2) == 0 {
			e := elems[rng.Intn(len(elems))]
			if best {
				e = elems[len(elems)-1]
			}
			q = q.Del(e)
			h = append(h, history.DeqOk(int(e)))
			continue
		}
		e := rng.Intn(3) + 1
		q = q.Ins(value.Elem(e))
		h = append(h, history.Enq(e))
	}
	return h
}

func TestFrontierMatchesStatesAfter(t *testing.T) {
	account := []history.History{
		{},
		{history.Credit(5), history.DebitOk(2)},
		{history.Credit(1), history.DebitOk(2)}, // rejected at step 2
		{history.DebitOk(1)},                    // rejected immediately
	}
	for _, h := range account {
		feedBoth(t, specs.BankAccount(), h)
	}
	taxi := []history.History{
		{history.Enq(2), history.Enq(1), history.Enq(2), history.DeqOk(2), history.DeqOk(2), history.DeqOk(1)},
		{history.Enq(3), history.Enq(1), history.DeqOk(3), history.DeqOk(3), history.DeqOk(1)}, // a duplicate delivery
		{history.Enq(3), history.Enq(1), history.DeqOk(1), history.DeqOk(3), history.Enq(2)},   // passes over 3
		{history.Enq(1), history.DeqOk(1), history.DeqOk(1), history.Enq(1), history.DeqOk(2)}, // phantom midway
		{history.DeqOk(1), history.Enq(1)}, // rejected at once
		{history.Enq(1), reset, history.Enq(2), history.DeqOk(7), history.Enq(3), reset, history.DeqOk(7)},
	}
	for _, bad := range malformedOps() {
		taxi = append(taxi,
			history.History{history.Enq(1), history.Enq(2), bad, history.DeqOk(2)},
			history.History{bad})
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		taxi = append(taxi, randomQueueHistory(rng, 40, i%2 == 0))
	}
	for _, a := range append(taxiAutomata(), seeded()) {
		for _, h := range taxi {
			feedBoth(t, a, h)
		}
	}
	if resetTo.Key() != "B[7]" {
		t.Fatalf("a state Succ returned was updated in place: %s", resetTo.Key())
	}
}

func TestFrontierNondeterministicGrowth(t *testing.T) {
	// fork splits into two states per Enq; the frontier must carry the
	// whole powerset element, not a single path.
	h := history.History{history.Enq(1), history.Enq(1), history.Enq(1)}
	feedBoth(t, fork(), h)
	f := automaton.NewFrontier(fork())
	for _, op := range h {
		if !f.Step(op) {
			t.Fatalf("fork died on %v", op)
		}
	}
	if f.Size() < 2 {
		t.Fatalf("expected a forked frontier, got size %d", f.Size())
	}
}

func TestFrontierDeadIsPermanent(t *testing.T) {
	f := automaton.NewFrontier(specs.BankAccount())
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

// Frontiers of one shared *Spec step from several goroutines at once:
// each owns its state, so none sees another's updates (make race runs
// this under the race detector).
func TestFrontiersShareOneSpec(t *testing.T) {
	h := randomQueueHistory(rand.New(rand.NewSource(11)), 200, false)
	for _, a := range append(taxiAutomata(), seeded()) {
		initKey := a.Init().Key()
		want := keysOf(automaton.StatesAfter(a, h))
		var wg sync.WaitGroup
		got := make([]string, 8)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f := automaton.NewFrontier(a)
				for _, op := range h {
					f.Step(op)
				}
				got[g] = keysOf(f.States())
			}()
		}
		wg.Wait()
		for g, k := range got {
			if k != want {
				t.Errorf("%s goroutine %d: frontier %s, offline %s", a.Name(), g, k, want)
			}
		}
		if a.Init().Key() != initKey {
			t.Errorf("%s: Init() changed from %s to %s", a.Name(), initKey, a.Init().Key())
		}
	}
}
