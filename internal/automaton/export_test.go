package automaton

import (
	"sort"

	"relaxlattice/internal/value"
)

// States returns the frontier's state set in canonical order. The
// returned slice is shared; callers must not mutate it. The frontier
// stops updating those states in place: its next Apply step clones.
func (f *Frontier) States() []value.Value {
	f.owned = false
	return f.states
}

// OpNames returns the operation names of the spec, sorted.
func (sp *Spec) OpNames() []string {
	names := make([]string, 0, len(sp.ops))
	for n := range sp.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
