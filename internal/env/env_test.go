package env

import (
	"math"
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/specs"
)

// crashEnv models two constraints that break on "crash" events and heal
// on "repair" events: crash drops J, partition drops K.
func crashEnv(u *lattice.Universe) (*Environment, Event, Event, Event) {
	crash := Event{Name: "crash"}
	partition := Event{Name: "partition"}
	repair := Event{Name: "repair"}
	e := &Environment{
		Init: u.All(),
		Delta: func(c lattice.Set, ev Event) lattice.Set {
			switch ev.Name {
			case "crash":
				return c.Without(u.Index("J"))
			case "partition":
				return c.Without(u.Index("K"))
			case "repair":
				return u.All()
			default:
				return c
			}
		},
	}
	return e, crash, partition, repair
}

func ssqUniverse() *lattice.Universe {
	return lattice.NewUniverse(
		lattice.Constraint{Name: "J", Desc: "no duplicate returns"},
		lattice.Constraint{Name: "K", Desc: "no out-of-order returns"},
	)
}

func ssqLattice(u *lattice.Universe) *lattice.Relaxation {
	return &lattice.Relaxation{
		Name:     "ssq",
		Universe: u,
		Phi: func(s lattice.Set) (automaton.Automaton, bool) {
			j, k := 2, 2
			if s.Has(u.Index("J")) {
				j = 1
			}
			if s.Has(u.Index("K")) {
				k = 1
			}
			return specs.SSQueue(j, k), true
		},
	}
}

func TestCombinedAutomaton(t *testing.T) {
	u := ssqUniverse()
	e, crash, _, repair := crashEnv(u)
	cm := &Combined{Env: e, Lat: ssqLattice(u)}

	enq := func(x int) Input { h := history.Enq(x); return Input{Op: &h} }
	deq := func(x int) Input { h := history.DeqOk(x); return Input{Op: &h} }

	// Under the full constraint set the object is FIFO: a duplicate
	// dequeue must be rejected.
	ok, _ := cm.Accepts([]Input{enq(1), deq(1), deq(1)})
	if ok {
		t.Errorf("duplicate dequeue accepted at top of lattice")
	}
	// After a crash the J constraint is lost: the behavior degrades to
	// SSqueue_21 and the stutter is tolerated.
	ok, c := cm.Accepts([]Input{enq(1), EventInput(crash), deq(1), deq(1)})
	if !ok {
		t.Errorf("stutter rejected after crash")
	}
	if c != u.Named("K") {
		t.Errorf("constraint state = %v", u.Format(c))
	}
	// Repair restores the preferred behavior for subsequent operations.
	ok, c = cm.Accepts([]Input{enq(1), EventInput(crash), deq(1), deq(1), EventInput(repair), enq(2), deq(2)})
	if !ok || c != u.All() {
		t.Errorf("after repair: ok=%v c=%v", ok, u.Format(c))
	}
}

func TestCombinedInitAndStep(t *testing.T) {
	u := ssqUniverse()
	e, crash, _, _ := crashEnv(u)
	cm := &Combined{Env: e, Lat: ssqLattice(u)}
	cs := cm.Init()
	if cs.C != u.All() {
		t.Errorf("Init C = %v", u.Format(cs.C))
	}
	// A pure event changes only the constraint component.
	next := cm.Step(cs, EventInput(crash))
	if len(next) != 1 || next[0].C != u.Named("K") || next[0].S.Key() != cs.S.Key() {
		t.Errorf("Step(event) = %v", next)
	}
	// Keys distinguish constraint states.
	if cs.Key() == next[0].Key() {
		t.Errorf("key collision across constraint states")
	}
}

// Overlapping alphabets (Section 3.4 style): the operation itself is an
// event. A "premature debit" drops constraint J just as it executes —
// the environment moves before the transition function is selected.
func TestOverlappingEventAndOperation(t *testing.T) {
	u := ssqUniverse()
	premature := Event{Name: "dup-deq"}
	e := &Environment{
		Init: u.All(),
		Delta: func(c lattice.Set, ev Event) lattice.Set {
			if ev.Name == "dup-deq" {
				return c.Without(u.Index("J"))
			}
			return c
		},
	}
	cm := &Combined{Env: e, Lat: ssqLattice(u)}
	in := func(op history.Op) Input { return opInput(op, premature, isDeq) }

	// The very first Deq already executes under the degraded behavior
	// (δ₁ fires before δ₂ selects the automaton), so the stutter on the
	// second Deq is accepted.
	ok, c := cm.Accepts([]Input{in(history.Enq(1)), in(history.DeqOk(1)), in(history.DeqOk(1))})
	if !ok {
		t.Errorf("overlapping event did not relax behavior")
	}
	if c != u.Named("K") {
		t.Errorf("constraint state = %v", u.Format(c))
	}
	// Enq does not match the event, so it leaves constraints alone.
	if got := in(history.Enq(1)); got.Event != nil {
		t.Errorf("Enq wrongly matched event")
	}
}

func TestProbSampleAndAnalytic(t *testing.T) {
	u := ssqUniverse()
	p := NewProb(u, map[string]float64{"J": 0.9}, 42)
	// K defaults to certain.
	const trials = 20000
	heldJ := 0
	for i := 0; i < trials; i++ {
		s := p.Sample()
		if !s.Has(u.Index("K")) {
			t.Fatalf("K must always hold")
		}
		if s.Has(u.Index("J")) {
			heldJ++
		}
	}
	got := float64(heldJ) / trials
	if math.Abs(got-0.9) > 0.02 {
		t.Errorf("J held with frequency %v, want ≈0.9", got)
	}
	if got := p.PAtLeast(u.Named("J", "K")); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("PAtLeast = %v", got)
	}
	if got := p.PSet(u.Named("K")); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("PSet({K}) = %v", got)
	}
	if got := p.PSet(u.Named("J", "K")); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("PSet({J,K}) = %v", got)
	}
}

func TestProbPanics(t *testing.T) {
	u := ssqUniverse()
	for name, fn := range map[string]func(){
		"unknown": func() { NewProb(u, map[string]float64{"nope": 0.5}, 1) },
		"range":   func() { NewProb(u, map[string]float64{"J": 1.5}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Determinism: same seed, same sample stream.
func TestProbDeterministic(t *testing.T) {
	u := ssqUniverse()
	a := NewProb(u, map[string]float64{"J": 0.5, "K": 0.5}, 7)
	b := NewProb(u, map[string]float64{"J": 0.5, "K": 0.5}, 7)
	for i := 0; i < 100; i++ {
		if a.Sample() != b.Sample() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

// opInput wraps an object operation, paired with the overlapping event
// e when matches says the execution is also that event (δ₁ of Section
// 2.3: if the input is both an event and an operation, the environment
// changes before the transition function is selected).
func opInput(op history.Op, e Event, matches func(history.Op) bool) Input {
	in := Input{Op: &op}
	if matches(op) {
		in.Event = &e
	}
	return in
}

func isDeq(op history.Op) bool { return op.Name == history.NameDeq }

// Accepts runs a sequence of inputs from the initial state, tracking
// the nondeterministic state set, and reports whether every operation
// was accepted. It also returns the final constraint state.
func (cm *Combined) Accepts(inputs []Input) (bool, lattice.Set) {
	states := []CombinedState{cm.Init()}
	c := cm.Env.Init
	for _, in := range inputs {
		seen := map[string]CombinedState{}
		for _, cs := range states {
			for _, next := range cm.Step(cs, in) {
				seen[next.Key()] = next
			}
		}
		if len(seen) == 0 {
			return false, c
		}
		states = states[:0]
		for _, cs := range seen {
			states = append(states, cs)
		}
		c = states[0].C // δ₁ is deterministic: all successors share C
	}
	return true, c
}
