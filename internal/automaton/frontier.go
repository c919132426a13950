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
// Once a prefix is rejected the frontier is dead forever (languages of
// simple object automata are prefix-closed); further Steps keep
// returning false.
//
// A Frontier is not safe for concurrent use; callers serialize Steps.
type Frontier struct {
	a      Automaton
	states []value.Value // nil = dead; otherwise deduplicated + sorted
}

// NewFrontier starts a frontier at {s₀} (the empty history).
func NewFrontier(a Automaton) *Frontier {
	return &Frontier{a: a, states: []value.Value{a.Init()}}
}

// Step advances the frontier by one operation execution and reports
// whether the extended history is still accepted.
func (f *Frontier) Step(op history.Op) bool {
	if f.states == nil {
		return false
	}
	f.states = stepAll(f.a, f.states, op)
	return f.states != nil
}

// Size returns the number of states in the frontier (0 when dead).
func (f *Frontier) Size() int { return len(f.states) }

// States returns the frontier's state set in canonical order. The
// returned slice is shared; callers must not mutate it.
func (f *Frontier) States() []value.Value { return f.states }
