package automaton

import (
	"relaxlattice/internal/history"
	"relaxlattice/internal/value"
)

// Frontier maintains δ*(s₀, h) for an incrementally extended history:
// the exploration engine's state-set representation (deduplicated and
// sorted) applied one operation at a time. Where Accepts replays the
// whole history on every call — O(|h|) automaton steps per query,
// O(|h|²) for a growing history — a Frontier pays one stepAll per
// operation, amortized O(frontier size), which is what makes online
// relaxation checking tractable on 10k-op soak runs.
//
// When the frontier holds one state it cloned itself and op's ensures
// clause is an Apply, it checks the requires clause and updates that
// state in place: a deterministic step allocates nothing. Any other
// step goes through stepAll and gives up ownership, so the next Apply
// step clones again. The frontier never updates a.Init(), a state that
// Succ returned, or a state States has handed out; it holds the same
// set of Keys either way.
//
// Once a prefix is rejected the frontier is dead forever (languages of
// simple object automata are prefix-closed); further Steps keep
// returning false.
//
// A Frontier is not safe for concurrent use; callers serialize Steps.
type Frontier struct {
	a      Automaton
	spec   *Spec         // a when it is a *Spec, whose Apply ops can step in place
	states []value.Value // nil = dead; otherwise deduplicated + sorted
	owned  bool          // states is one state the frontier cloned itself
}

// NewFrontier starts a frontier at {s₀} (the empty history).
func NewFrontier(a Automaton) *Frontier {
	spec, _ := a.(*Spec)
	return &Frontier{a: a, spec: spec, states: []value.Value{a.Init()}}
}

// Step advances the frontier by one operation execution and reports
// whether the extended history is still accepted.
func (f *Frontier) Step(op history.Op) bool {
	if f.states == nil {
		return false
	}
	if f.spec != nil && len(f.states) == 1 {
		if o, ok := f.spec.ops[op.Name]; ok && o.Apply != nil {
			return f.apply(o, op)
		}
	}
	f.states = stepAll(f.a, f.states, op)
	f.owned = false
	return f.states != nil
}

// apply steps the frontier's one state through an Apply operation in
// place, cloning it first unless the frontier already owns it.
func (f *Frontier) apply(o OpSpec, op history.Op) bool {
	s := f.states[0]
	if o.Pre != nil && !o.Pre(s, op) {
		f.states, f.owned = nil, false
		return false
	}
	if !f.owned {
		s = value.Clone(s)
		f.states, f.owned = []value.Value{s}, true
	}
	if !o.Apply(s, op) {
		f.states, f.owned = nil, false
		return false
	}
	return true
}

// Size returns the number of states in the frontier (0 when dead).
func (f *Frontier) Size() int { return len(f.states) }
