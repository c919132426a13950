package value

// Seq is the sequence carrier for the FIFO-queue trait of Figure 2-3 and
// the semiqueue trait of Figure 4-1: the Bag generators emp/ins renamed
// to sort Q, with the first and rest observers giving insertion order
// (ins appends at the back; first observes the front, i.e. the oldest
// insertion). Seq is immutable.
type Seq struct {
	items []Elem // index 0 = oldest (front of the queue)
}

// EmptySeq returns emp, the empty sequence.
func EmptySeq() Seq { return Seq{} }

// Ins returns ins(q, e): q with e appended at the back.
func (q Seq) Ins(e Elem) Seq {
	out := make([]Elem, 0, len(q.items)+1)
	out = append(out, q.items...)
	out = append(out, e)
	return Seq{items: out}
}

// First returns first(q), the oldest element. ok is false when q is
// empty (first(emp) is unspecified by the trait).
func (q Seq) First() (e Elem, ok bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0], true
}

// Rest returns rest(q): q without its oldest element; rest(emp) = emp.
func (q Seq) Rest() Seq {
	if len(q.items) == 0 {
		return q
	}
	return Seq{items: copyElems(q.items[1:])}
}

// DelAt returns q with the element at position i (0 = front) removed.
// It is used by operational queue runtimes where a specific occurrence
// is dequeued; it panics when i is out of range.
func (q Seq) DelAt(i int) Seq {
	out := make([]Elem, 0, len(q.items)-1)
	out = append(out, q.items[:i]...)
	out = append(out, q.items[i+1:]...)
	return Seq{items: out}
}

// IsEmp reports isEmp(q).
func (q Seq) IsEmp() bool { return len(q.items) == 0 }

// Size returns the number of elements.
func (q Seq) Size() int { return len(q.items) }

// Get returns the element at position i (0 = front). It panics when i
// is out of range.
func (q Seq) Get(i int) Elem { return q.items[i] }

// Equal reports whether two sequences are identical.
func (q Seq) Equal(other Seq) bool { return q.Key() == other.Key() }

// Key returns the canonical encoding.
func (q Seq) Key() string { return "Q" + elemsKey(q.items) }

// String renders the sequence front-to-back, e.g. "<1 2 3>".
func (q Seq) String() string {
	return "<" + trimBrackets(elemsKey(q.items)) + ">"
}

func trimBrackets(s string) string {
	return s[1 : len(s)-1]
}
