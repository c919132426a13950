// Package env implements the environment model of Section 2.3: the
// environment automaton ⟨2^C, c₀, EVENT, δ_E⟩ whose state is the set of
// constraints currently satisfied, the combined automaton that
// interleaves environment events with object operations, and the
// probabilistic environment models the paper interfaces to (Section 2.3
// last paragraph, and the worked example at the end of Section 3.3).
package env

import (
	"fmt"

	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/value"
)

// Event is an environment event: a site crash, a communication failure,
// a recovery, a premature debit, a transaction commit — anything that
// changes which constraints hold. Events may coincide with object
// operations (Sections 3.4, 4.2): an Input then carries both.
type Event struct {
	// Name identifies the event, e.g. "crash(S1)".
	Name string
}

// Environment is the environment automaton: a deterministic transition
// system over the constraint sets of the relaxation lattice's universe
// C, whose input alphabet EVENT is whatever events Delta handles.
type Environment struct {
	// Init is c₀, the initial constraint state.
	Init lattice.Set
	// Delta is δ_E: 2^C × EVENT → 2^C. Unlike object automata it maps to
	// a single state.
	Delta func(c lattice.Set, e Event) lattice.Set
}

// CombinedState is the state of the combined automaton of Section 2.3:
// the environment's constraint set paired with the object state.
type CombinedState struct {
	C lattice.Set
	S value.Value
}

// Key returns the canonical encoding.
func (cs CombinedState) Key() string {
	return fmt.Sprintf("env{%b}+%s", uint64(cs.C), cs.S.Key())
}

// Input is one input to the combined automaton: an environment event,
// an object operation, or (when the alphabets overlap) both at once.
type Input struct {
	// Event is the environment event, if any.
	Event *Event
	// Op is the object operation execution, if any.
	Op *history.Op
}

// EventInput wraps a pure environment event.
func EventInput(e Event) Input { return Input{Event: &e} }

// Combined is the single automaton of Section 2.3 accepting interleaved
// events and operations: ⟨2^C × STATE, (c₀, s₀), EVENT ∪ OP, δ⟩ with
// δ₁ updating the constraint state and δ₂ stepping the object under the
// automaton φ selects for the *new* constraint state.
type Combined struct {
	Env *Environment
	Lat *lattice.Relaxation
}

// Init returns (c₀, s₀). The object's initial state comes from the
// preferred behavior; every automaton in a lattice shares STATE and s₀
// (Section 2.2).
func (cm *Combined) Init() CombinedState {
	return CombinedState{C: cm.Env.Init, S: cm.Lat.Preferred().Init()}
}

// Step applies one input. It returns the possible successor states, or
// nil when the input is an operation rejected by the selected behavior
// (or when φ is undefined at the new constraint state).
func (cm *Combined) Step(cs CombinedState, in Input) []CombinedState {
	c := cs.C
	if in.Event != nil {
		c = cm.Env.Delta(c, *in.Event) // δ₁: environment moves first
	}
	if in.Op == nil {
		return []CombinedState{{C: c, S: cs.S}}
	}
	a, ok := cm.Lat.Phi(c)
	if !ok {
		return nil
	}
	next := a.Step(cs.S, *in.Op) // δ₂ under the selected behavior
	out := make([]CombinedState, 0, len(next))
	for _, s := range next {
		out = append(out, CombinedState{C: c, S: s})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
