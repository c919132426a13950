// Package value implements the abstract value algebras (Larch traits) of
// Herlihy & Wing (PODC 1987) as immutable Go values with canonical forms:
// Bag (Figure 2-1), FIFO queue sequences (Figure 2-3), priority queues
// (Figure 3-1), multi-priority queues (Figure 3-3), semiqueues
// (Figure 4-1), stuttering queues (Figure 4-3), sets, and bank accounts
// (Section 3.4).
//
// Each trait operator (emp, ins, del, isEmp, isIn, first, rest, best,
// prefix, ...) is a method, and the trait's equational axioms are
// verified by property tests in this package. All types are immutable:
// operations return new values and never mutate the receiver, so values
// can be shared freely across automata and histories. The one exception
// is a Clone of a Bag or MPQ: its owner may update it in place (Bag.Add,
// Bag.Remove) until it shares it.
package value

import (
	"fmt"
	"strconv"
	"strings"
)

// Elem is an element value. The paper's traits are generic in an element
// sort E with (for priority queues) an assumed total order; Elem supplies
// that order through ordinary integer comparison, where a larger Elem has
// higher priority.
type Elem int

// Less reports the total order on elements (priority order: e < f means
// f has higher priority).
func (e Elem) Less(f Elem) bool { return e < f }

// Value is implemented by every abstract value in this package and by
// automaton states generally. Key returns a canonical encoding: two
// values are equal exactly when their Keys are equal.
type Value interface {
	Key() string
	String() string
}

// Clone returns a copy of v that its caller owns and may update in
// place, for the state types that support it (Bag and MPQ). It panics
// on any other type.
func Clone(v Value) Value {
	switch v := v.(type) {
	case Bag:
		return v.Clone()
	case MPQ:
		return v.Clone()
	}
	panic(fmt.Sprintf("value: %T cannot be cloned for in-place update", v))
}

func elemsKey(items []Elem) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, e := range items {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(int(e)))
	}
	b.WriteByte(']')
	return b.String()
}

func copyElems(items []Elem) []Elem {
	return append([]Elem(nil), items...)
}
