// Package lattice implements the relaxation lattice of Section 2.2: a
// set of constraints C inducing the powerset lattice 2^C, a lattice of
// simple object automata ordered by reverse language inclusion, and a
// lattice homomorphism φ: 2^C → A mapping each constraint set to the
// behavior an object exhibits while it satisfies exactly those
// constraints. The stronger the constraint set, the smaller (more
// preferred) the accepted language.
package lattice

import (
	"fmt"
	"sort"
	"strings"
)

// Constraint is one assertion in the constraint set C. Its meaning is
// domain-dependent (quorum intersection requirements in Section 3,
// bounds on concurrent dequeuers in Section 4); the lattice machinery
// treats constraints as opaque.
type Constraint struct {
	// Name is a short identifier, e.g. "Q1".
	Name string
	// Desc explains the assertion, e.g. "each initial Deq quorum
	// intersects each final Enq quorum".
	Desc string
}

// Set is a subset of a universe of up to 64 constraints, represented as
// a bitmask: bit i set means the i-th constraint of the universe holds.
type Set uint64

// Empty is the empty constraint set ∅ (the bottom of 2^C).
const Empty Set = 0

// Has reports whether constraint index i is in the set.
func (s Set) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// With returns s ∪ {i}.
func (s Set) With(i int) Set { return s | 1<<uint(i) }

// Without returns s \ {i}.
func (s Set) Without(i int) Set { return s &^ (1 << uint(i)) }

// Union returns s ∪ t (the lattice join of 2^C).
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns s ∩ t (the lattice meet of 2^C).
func (s Set) Intersect(t Set) Set { return s & t }

// SubsetOf reports s ⊆ t: t is at least as strong a constraint set.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// Size returns |s|.
func (s Set) Size() int {
	n := 0
	for x := s; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Indexes returns the constraint indexes in the set, ascending.
func (s Set) Indexes() []int {
	var out []int
	for i := 0; i < 64; i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// Universe is a fixed, ordered set of constraints C together with
// helpers over its powerset lattice 2^C.
type Universe struct {
	constraints []Constraint
	byName      map[string]int
}

// NewUniverse builds a constraint universe. It panics on more than 64
// constraints or duplicate names (programming errors).
func NewUniverse(constraints ...Constraint) *Universe {
	if len(constraints) > 64 {
		panic(fmt.Sprintf("lattice: %d constraints exceed the 64-constraint limit", len(constraints)))
	}
	byName := make(map[string]int, len(constraints))
	for i, c := range constraints {
		if c.Name == "" {
			panic("lattice: constraint with empty name")
		}
		if _, dup := byName[c.Name]; dup {
			panic(fmt.Sprintf("lattice: duplicate constraint name %q", c.Name))
		}
		byName[c.Name] = i
	}
	return &Universe{constraints: append([]Constraint(nil), constraints...), byName: byName}
}

// Len returns |C|.
func (u *Universe) Len() int { return len(u.constraints) }

// All returns the full constraint set C (the top of 2^C).
func (u *Universe) All() Set { return Set(1)<<uint(len(u.constraints)) - 1 }

// Constraint returns the i-th constraint.
func (u *Universe) Constraint(i int) Constraint { return u.constraints[i] }

// Index returns the index of the named constraint, or -1 if absent.
func (u *Universe) Index(name string) int {
	if i, ok := u.byName[name]; ok {
		return i
	}
	return -1
}

// Named builds a Set from constraint names; it panics on unknown names.
func (u *Universe) Named(names ...string) Set {
	var s Set
	for _, n := range names {
		i := u.Index(n)
		if i < 0 {
			panic(fmt.Sprintf("lattice: unknown constraint %q", n))
		}
		s = s.With(i)
	}
	return s
}

// Subsets enumerates all 2^|C| subsets, from ∅ to C, in ascending mask
// order (which refines ascending-size-within-level is not guaranteed;
// use SubsetsBySize for level order).
func (u *Universe) Subsets() []Set {
	n := uint(len(u.constraints))
	out := make([]Set, 0, 1<<n)
	for m := Set(0); m < 1<<n; m++ {
		out = append(out, m)
	}
	return out
}

// SubsetsBySize enumerates all subsets grouped by descending size
// (strongest first), deterministically.
func (u *Universe) SubsetsBySize() []Set {
	subs := u.Subsets()
	sort.SliceStable(subs, func(i, j int) bool {
		si, sj := subs[i].Size(), subs[j].Size()
		if si != sj {
			return si > sj
		}
		return subs[i] < subs[j]
	})
	return subs
}

// Format renders a set as "{Q1, Q2}" using the universe's names.
func (u *Universe) Format(s Set) string {
	if s == Empty {
		return "∅"
	}
	var names []string
	for _, i := range s.Indexes() {
		names = append(names, u.constraints[i].Name)
	}
	return "{" + strings.Join(names, ", ") + "}"
}
