// Package automaton implements the simple object automata of Section 2:
// an automaton ⟨STATE, s₀, OP, δ⟩ accepting histories of operation
// executions, with δ extended to histories (δ*), acceptance, and bounded
// language enumeration and comparison.
//
// Automata are built from Larch-style interfaces (Section 2.4): each
// operation has a precondition over the starting state and a successor
// enumerator realizing its postcondition relation, so that
// s' ∈ δ(s, p) iff p.pre(s) ∧ p.post(s, s').
package automaton

import (
	"sort"

	"relaxlattice/internal/history"
	"relaxlattice/internal/value"
)

// Automaton is a simple object automaton. Step returns the set of
// possible successor states of s on operation execution op; an empty
// result means op is not accepted from s. Implementations must be
// deterministic functions of (s, op), must not mutate s, and must be
// safe for concurrent Step calls: one automaton value may be shared by
// goroutines, such as experiments the runner executes in parallel.
type Automaton interface {
	// Name identifies the automaton (used in lattice and experiment output).
	Name() string
	// Init returns the initial state s₀.
	Init() value.Value
	// Step is the transition function δ: STATE × OP → 2^STATE.
	Step(s value.Value, op history.Op) []value.Value
}

// StatesAfter computes δ*(s₀, h): the set of states reachable by h,
// deduplicated by canonical key and sorted for determinism. It returns
// nil when h is not accepted.
func StatesAfter(a Automaton, h history.History) []value.Value {
	states := []value.Value{a.Init()}
	for _, op := range h {
		states = stepAll(a, states, op)
		if len(states) == 0 {
			return nil
		}
	}
	return states
}

func stepAll(a Automaton, states []value.Value, op history.Op) []value.Value {
	// Fast path: a single state with at most one successor (the common
	// deterministic-automaton case) needs no map or sort.
	if len(states) == 1 {
		next := a.Step(states[0], op)
		if len(next) == 0 {
			return nil
		}
		if len(next) == 1 {
			return next
		}
	}
	next := make(map[string]value.Value)
	for _, s := range states {
		for _, s2 := range a.Step(s, op) {
			next[s2.Key()] = s2
		}
	}
	return sortValues(next)
}

func sortValues(m map[string]value.Value) []value.Value {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]value.Value, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// Accepts reports whether h ∈ L(a), i.e. δ*(h) ≠ ∅. Languages of simple
// object automata are prefix-closed: if a prefix is rejected, every
// extension is rejected.
func Accepts(a Automaton, h history.History) bool {
	return StatesAfter(a, h) != nil
}
