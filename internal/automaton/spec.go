package automaton

import (
	"fmt"

	"relaxlattice/internal/history"
	"relaxlattice/internal/value"
)

// OpSpec is the Larch interface (Section 2.4) for one operation: a
// requires clause over the starting state and an ensures clause realized
// either as a successor enumerator (Succ) or, when the clause names one
// successor, as an in-place update (Apply). Exactly one of the two is
// set. Succ must return exactly the states s' for which the
// postcondition p.post(s, s') holds for the *full* operation execution
// op (invocation and response); returning no states for a response that
// the postcondition cannot justify is how the automaton rejects
// ill-responded executions. Apply updates s, which its caller owns (a
// value.Clone), to the one such state and returns true, or returns
// false when there is none; s is unspecified after a false return.
type OpSpec struct {
	// Name is the operation name this spec applies to.
	Name string
	// Pre is the requires clause; a nil Pre means requires true.
	Pre func(s value.Value, op history.Op) bool
	// Succ enumerates the postcondition's successor states.
	Succ func(s value.Value, op history.Op) []value.Value
	// Apply updates an owned state to the postcondition's one successor.
	Apply func(s value.Value, op history.Op) bool
}

// Spec is a simple object automaton assembled from Larch interfaces.
// It implements Automaton.
type Spec struct {
	name string
	init value.Value
	ops  map[string]OpSpec
}

var _ Automaton = (*Spec)(nil)

// NewSpec builds an automaton named name with initial state init and
// the given operation interfaces. It panics on duplicate operation
// names, on an operation that sets neither or both of Succ and Apply,
// and on an Apply operation over a state value.Clone cannot copy
// (programming errors in spec construction).
func NewSpec(name string, init value.Value, ops ...OpSpec) *Spec {
	m := make(map[string]OpSpec, len(ops))
	for _, op := range ops {
		if _, dup := m[op.Name]; dup {
			panic(fmt.Sprintf("automaton: duplicate operation %q in spec %q", op.Name, name))
		}
		if (op.Succ == nil) == (op.Apply == nil) {
			panic(fmt.Sprintf("automaton: operation %q in spec %q needs exactly one of Succ and Apply", op.Name, name))
		}
		if op.Apply != nil {
			value.Clone(init) // panics on a state it cannot copy
		}
		m[op.Name] = op
	}
	return &Spec{name: name, init: init, ops: m}
}

// Name returns the spec's name.
func (sp *Spec) Name() string { return sp.name }

// Init returns the initial state.
func (sp *Spec) Init() value.Value { return sp.init }

// Step implements δ: if op's precondition holds in s, it returns the
// postcondition's successors, else nothing.
func (sp *Spec) Step(s value.Value, op history.Op) []value.Value {
	o, ok := sp.ops[op.Name]
	if !ok {
		return nil
	}
	if o.Pre != nil && !o.Pre(s, op) {
		return nil
	}
	return o.successors(s, op)
}

// successors is the ensures clause as a successor set. An Apply
// operation updates a clone, so s itself is never changed.
func (o *OpSpec) successors(s value.Value, op history.Op) []value.Value {
	if o.Succ != nil {
		return o.Succ(s, op)
	}
	next := value.Clone(s)
	if !o.Apply(next, op) {
		return nil
	}
	return []value.Value{next}
}

// PreHolds reports whether op's requires clause holds in state s.
// Unknown operations have no transitions, so their precondition is
// reported false.
func (sp *Spec) PreHolds(s value.Value, op history.Op) bool {
	o, ok := sp.ops[op.Name]
	if !ok {
		return false
	}
	return o.Pre == nil || o.Pre(s, op)
}

// PostHolds reports whether the postcondition relates s to s' under op,
// i.e. whether s' is among op's successors from s (preconditions are not
// consulted, matching the pre/post factoring of Section 2.4).
func (sp *Spec) PostHolds(s value.Value, op history.Op, next value.Value) bool {
	o, ok := sp.ops[op.Name]
	if !ok {
		return false
	}
	want := next.Key()
	for _, s2 := range o.successors(s, op) {
		if s2.Key() == want {
			return true
		}
	}
	return false
}

// Rename returns a copy of the spec under a new name; the operation
// interfaces are shared (they are immutable).
func (sp *Spec) Rename(name string) *Spec {
	return &Spec{name: name, init: sp.init, ops: sp.ops}
}
