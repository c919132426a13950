package value

import (
	"sort"
	"strconv"
	"strings"
)

// Bag is the multiset trait of Figure 2-1, extended with the best
// operator of the priority-queue trait (Figure 3-1; best assumes the
// total order on Elem). Its canonical form keeps one (element,
// multiplicity) run per distinct element, sorted ascending, which
// realizes the intended multiset semantics of the trait (terms equal
// up to insertion order denote the same value). An operation costs
// O(distinct elements), not O(size): a queue of ten thousand requests
// over nine priorities is nine runs.
//
// A Bag is immutable through every method except Add and Remove, which
// update a bag in place and are valid only on a Clone its caller owns.
// A Bag is one pointer (the zero value, nil, is emp), so boxing it in a
// Value never allocates and a boxed clone can be updated through the
// box.
type Bag struct {
	d *bagData
}

type bagData struct {
	runs []bagRun // sorted ascending by elem; every n > 0
	size int      // sum of the runs' multiplicities
}

type bagRun struct {
	elem Elem
	n    int
}

// EmptyBag returns emp, the empty bag.
func EmptyBag() Bag { return Bag{} }

// runs returns b's runs (nil for emp).
func (b Bag) runs() []bagRun {
	if b.d == nil {
		return nil
	}
	return b.d.runs
}

// search returns the index of e's run, or where it would be inserted.
func (b Bag) search(e Elem) (i int, found bool) {
	runs := b.runs()
	i = sort.Search(len(runs), func(i int) bool { return runs[i].elem >= e })
	return i, i < len(runs) && runs[i].elem == e
}

// Clone returns a copy of b that shares nothing with it, for a caller
// that will update it in place with Add and Remove.
func (b Bag) Clone() Bag { return b.cloneCap(len(b.runs())) }

// Add inserts e into b in place: b becomes ins(b, e). b must be a Clone
// its caller owns.
func (b Bag) Add(e Elem) {
	i, found := b.search(e)
	if found {
		b.d.runs[i].n++
	} else {
		b.d.runs = append(b.d.runs, bagRun{})
		copy(b.d.runs[i+1:], b.d.runs[i:])
		b.d.runs[i] = bagRun{elem: e, n: 1}
	}
	b.d.size++
}

// Remove deletes one occurrence of e from b in place, reporting whether
// e was present: b becomes del(b, e). b must be a Clone its caller
// owns.
func (b Bag) Remove(e Elem) bool {
	i, found := b.search(e)
	if !found {
		return false
	}
	if b.d.runs[i].n > 1 {
		b.d.runs[i].n--
	} else {
		b.d.runs = append(b.d.runs[:i], b.d.runs[i+1:]...)
	}
	b.d.size--
	return true
}

// Ins returns ins(b, e): a new bag whose runs are allocated at exactly
// the length the result needs.
func (b Bag) Ins(e Elem) Bag {
	n := len(b.runs())
	if !b.IsIn(e) {
		n++
	}
	c := b.cloneCap(n)
	c.Add(e)
	return c
}

// Del returns del(b, e): b with one occurrence of e removed, or b
// itself when e is absent (del(emp, e) = emp).
func (b Bag) Del(e Elem) Bag {
	i, found := b.search(e)
	switch {
	case !found:
		return b
	case b.d.runs[i].n == 1:
		// e's run goes: copy around it.
		runs := b.d.runs
		out := append(append(make([]bagRun, 0, len(runs)-1), runs[:i]...), runs[i+1:]...)
		return Bag{&bagData{runs: out, size: b.d.size - 1}}
	}
	c := b.cloneCap(len(b.d.runs))
	c.Remove(e)
	return c
}

// cloneCap is Clone with room for n runs (n ≥ len(b's runs)).
func (b Bag) cloneCap(n int) Bag {
	runs := append(make([]bagRun, 0, n), b.runs()...)
	return Bag{&bagData{runs: runs, size: b.Size()}}
}

// IsEmp reports isEmp(b).
func (b Bag) IsEmp() bool { return b.Size() == 0 }

// IsIn reports isIn(b, e).
func (b Bag) IsIn(e Elem) bool {
	_, found := b.search(e)
	return found
}

// Size returns the total number of elements (with multiplicity).
func (b Bag) Size() int {
	if b.d == nil {
		return 0
	}
	return b.d.size
}

// Best returns best(b), the highest-priority (largest) element, per the
// priority-queue trait of Figure 3-1. ok is false when b is empty
// (best(emp) is unspecified by the trait).
func (b Bag) Best() (e Elem, ok bool) {
	runs := b.runs()
	if len(runs) == 0 {
		return 0, false
	}
	return runs[len(runs)-1].elem, true
}

// Elems returns the elements in ascending order, each repeated by its
// multiplicity (a copy).
func (b Bag) Elems() []Elem {
	if b.Size() == 0 {
		return nil
	}
	out := make([]Elem, 0, b.Size())
	for _, r := range b.runs() {
		for k := 0; k < r.n; k++ {
			out = append(out, r.elem)
		}
	}
	return out
}

// Equal reports whether two bags hold the same multiset.
func (b Bag) Equal(other Bag) bool {
	runs, others := b.runs(), other.runs()
	if b.Size() != other.Size() || len(runs) != len(others) {
		return false
	}
	for i, r := range runs {
		if r != others[i] {
			return false
		}
	}
	return true
}

// Key returns the canonical encoding: "B" and the expanded elements,
// e.g. "B[1 2 2 5]".
func (b Bag) Key() string { return b.render("B[", "]") }

// String renders the bag as e.g. "{1 2 2 5}".
func (b Bag) String() string { return b.render("{", "}") }

// render writes the expanded elements space-separated between open and
// close — elemsKey's element text without materializing Elems().
func (b Bag) render(open, close string) string {
	var sb strings.Builder
	sb.WriteString(open)
	var num [20]byte
	first := true
	for _, r := range b.runs() {
		text := strconv.AppendInt(num[:0], int64(r.elem), 10)
		for k := 0; k < r.n; k++ {
			if !first {
				sb.WriteByte(' ')
			}
			first = false
			sb.Write(text)
		}
	}
	sb.WriteString(close)
	return sb.String()
}
