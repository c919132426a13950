package automaton

import (
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/value"
)

// counter is a test automaton over Account values: Credit(n) adds n,
// Debit(n) subtracts but requires balance ≥ n.
func counter() *Spec {
	return NewSpec("counter", value.NewAccount(0),
		OpSpec{
			Name: history.NameCredit,
			Succ: func(s value.Value, op history.Op) []value.Value {
				return []value.Value{value.NewAccount(s.(value.Account).Balance + op.Args[0])}
			},
		},
		OpSpec{
			Name: history.NameDebit,
			Pre: func(s value.Value, op history.Op) bool {
				return s.(value.Account).Balance >= op.Args[0]
			},
			Succ: func(s value.Value, op history.Op) []value.Value {
				if op.Term != history.Ok {
					return nil
				}
				return []value.Value{value.NewAccount(s.(value.Account).Balance - op.Args[0])}
			},
		},
	)
}

// chaos is nondeterministic: Enq(e) moves to one of two states.
func chaos() *Spec {
	return NewSpec("chaos", value.NewAccount(0),
		OpSpec{
			Name: history.NameEnq,
			Succ: func(s value.Value, op history.Op) []value.Value {
				b := s.(value.Account).Balance
				return []value.Value{value.NewAccount(b + 1), value.NewAccount(b + 2)}
			},
		},
		OpSpec{
			Name: history.NameDeq,
			Pre: func(s value.Value, op history.Op) bool {
				// Only acceptable from an even state.
				return s.(value.Account).Balance%2 == 0
			},
			Succ: func(s value.Value, op history.Op) []value.Value {
				return []value.Value{s}
			},
		},
	)
}

func TestStatesAfterDeterministic(t *testing.T) {
	a := counter()
	h := history.History{history.Credit(5), history.DebitOk(2)}
	states := StatesAfter(a, h)
	if len(states) != 1 {
		t.Fatalf("states = %v", states)
	}
	if states[0].(value.Account).Balance != 3 {
		t.Errorf("balance = %v", states[0])
	}
}

func TestStatesAfterRejects(t *testing.T) {
	a := counter()
	// Debit exceeding balance violates the precondition.
	if Accepts(a, history.History{history.DebitOk(1)}) {
		t.Errorf("accepted overdraft")
	}
	// Unknown operation rejects.
	if Accepts(a, history.History{history.Enq(1)}) {
		t.Errorf("accepted unknown op")
	}
	// Prefix closure: a rejected prefix dooms every extension.
	h := history.History{history.DebitOk(1), history.Credit(5)}
	if Accepts(a, h) {
		t.Errorf("accepted history with rejected prefix")
	}
	// Empty history is always accepted.
	if !Accepts(a, history.Empty) {
		t.Errorf("rejected empty history")
	}
}

func TestNondeterministicSubsetTracking(t *testing.T) {
	a := chaos()
	// After one Enq the automaton is in {1, 2}; Deq is possible from 2.
	if !Accepts(a, history.History{history.Enq(0), history.DeqOk(0)}) {
		t.Errorf("nondeterminism not tracked: Deq should be reachable")
	}
	states := StatesAfter(a, history.History{history.Enq(0)})
	if len(states) != 2 {
		t.Fatalf("states = %v", states)
	}
	// After Deq, only the even branch survives.
	states = StatesAfter(a, history.History{history.Enq(0), history.DeqOk(0)})
	if len(states) != 1 || states[0].(value.Account).Balance != 2 {
		t.Errorf("surviving states = %v", states)
	}
}

func TestStatesAfterDeduplicates(t *testing.T) {
	// Two Enqs: {2,3,4} (1+1, 1+2=2+1, 2+2) — dedup by key.
	states := StatesAfter(chaos(), history.History{history.Enq(0), history.Enq(0)})
	if len(states) != 3 {
		t.Errorf("expected 3 deduplicated states, got %v", states)
	}
}

func TestPreAndPostHolds(t *testing.T) {
	a := counter()
	s0 := value.NewAccount(0)
	s5 := value.NewAccount(5)
	if !a.PreHolds(s5, history.DebitOk(3)) {
		t.Errorf("pre should hold")
	}
	if a.PreHolds(s0, history.DebitOk(3)) {
		t.Errorf("pre should fail on overdraft")
	}
	if a.PreHolds(s0, history.Enq(1)) {
		t.Errorf("pre of unknown op should be false")
	}
	if !a.PostHolds(s5, history.DebitOk(3), value.NewAccount(2)) {
		t.Errorf("post should hold")
	}
	if a.PostHolds(s5, history.DebitOk(3), value.NewAccount(1)) {
		t.Errorf("post should fail for wrong successor")
	}
	if a.PostHolds(s5, history.Enq(1), s5) {
		t.Errorf("post of unknown op should be false")
	}
}

func TestSpecPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate op", func() {
		NewSpec("dup", value.EmptyBag(),
			OpSpec{Name: "X", Succ: func(value.Value, history.Op) []value.Value { return nil }},
			OpSpec{Name: "X", Succ: func(value.Value, history.Op) []value.Value { return nil }},
		)
	})
	mustPanic("nil succ", func() {
		NewSpec("nosucc", value.EmptyBag(), OpSpec{Name: "X"})
	})
	mustPanic("both succ and apply", func() {
		NewSpec("both", value.EmptyBag(), OpSpec{Name: "X",
			Succ:  func(value.Value, history.Op) []value.Value { return nil },
			Apply: func(value.Value, history.Op) bool { return true },
		})
	})
	mustPanic("apply over a state that cannot be cloned", func() {
		NewSpec("noclone", value.NewAccount(0),
			OpSpec{Name: "X", Apply: func(value.Value, history.Op) bool { return true }})
	})
}

func TestSpecAccessors(t *testing.T) {
	a := counter()
	if a.Name() != "counter" {
		t.Errorf("Name = %q", a.Name())
	}
	names := a.OpNames()
	if len(names) != 2 || names[0] != "Credit" || names[1] != "Debit" {
		t.Errorf("OpNames = %v", names)
	}
	r := a.Rename("other")
	if r.Name() != "other" || !Accepts(r, history.History{history.Credit(1)}) {
		t.Errorf("Rename broken")
	}
}

func TestCompareEqualLanguages(t *testing.T) {
	alphabet := history.AccountAlphabet(2)
	res := Compare(counter(), counter().Rename("copy"), alphabet, 4)
	if !res.Equal || !res.SubsetAB() || res.OnlyB != nil {
		t.Fatalf("identical automata compared unequal: %+v", res)
	}
	if res.CountA[0] != 1 || res.CountB[0] != 1 {
		t.Errorf("empty history counts: %v %v", res.CountA, res.CountB)
	}
	for l := range res.CountA {
		if res.CountA[l] != res.CountB[l] {
			t.Errorf("count mismatch at %d", l)
		}
	}
}

func TestCompareFindsCounterexample(t *testing.T) {
	// counter vs a version that forbids Credit(2).
	restricted := NewSpec("restricted", value.NewAccount(0),
		OpSpec{
			Name: history.NameCredit,
			Pre: func(s value.Value, op history.Op) bool {
				return op.Args[0] != 2
			},
			Succ: func(s value.Value, op history.Op) []value.Value {
				return []value.Value{value.NewAccount(s.(value.Account).Balance + op.Args[0])}
			},
		},
	)
	alphabet := []history.Op{history.Credit(1), history.Credit(2)}
	res := Compare(counter(), restricted, alphabet, 3)
	if res.Equal {
		t.Fatalf("expected inequality")
	}
	if res.OnlyA == nil {
		t.Fatalf("missing counterexample in L(A)\\L(B)")
	}
	if res.OnlyA.Key() != (history.History{history.Credit(2)}).Key() {
		t.Errorf("OnlyA = %v", res.OnlyA)
	}
	if res.OnlyB != nil {
		t.Errorf("restricted ⊆ counter should hold; OnlyB = %v", res.OnlyB)
	}
	if res.SubsetAB() {
		t.Errorf("counter ⊄ restricted")
	}
}

func TestLanguageAndCounts(t *testing.T) {
	alphabet := []history.Op{history.Credit(1), history.DebitOk(1)}
	lang := Language(counter(), alphabet, 2)
	// Length 0: Λ. Length 1: Credit. Length 2: Credit·Credit, Credit·Debit.
	if len(lang) != 4 {
		t.Fatalf("language = %v", lang)
	}
	counts := Compare(counter(), counter(), alphabet, 2).CountA
	want := []uint64{1, 1, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts = %v, want %v", counts, want)
		}
	}
	// Language output must agree with Accepts.
	for _, h := range lang {
		if !Accepts(counter(), h) {
			t.Errorf("Language emitted unaccepted history %v", h)
		}
	}
}
