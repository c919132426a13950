package value

import (
	"sort"
	"strconv"
	"strings"
)

// Bag is the multiset trait of Figure 2-1, extended with the best
// operator of the priority-queue trait (Figure 3-1; best assumes the
// total order on Elem). A Bag is immutable; its canonical form keeps
// one (element, multiplicity) run per distinct element, sorted
// ascending, which realizes the intended multiset semantics of the
// trait (terms equal up to insertion order denote the same value). An
// operation costs O(distinct elements), not O(size): a queue of ten
// thousand requests over nine priorities is nine runs.
type Bag struct {
	runs []bagRun // sorted ascending by elem; every n > 0
	size int      // sum of the runs' multiplicities
}

type bagRun struct {
	elem Elem
	n    int
}

// EmptyBag returns emp, the empty bag.
func EmptyBag() Bag { return Bag{} }

// BagOf builds a bag containing the given elements.
func BagOf(elems ...Elem) Bag {
	var runs []bagRun
	for _, e := range sortedCopy(elems) {
		if k := len(runs); k > 0 && runs[k-1].elem == e {
			runs[k-1].n++
		} else {
			runs = append(runs, bagRun{elem: e, n: 1})
		}
	}
	return Bag{runs: runs, size: len(elems)}
}

// search returns the index of e's run, or where it would be inserted.
func (b Bag) search(e Elem) (i int, found bool) {
	i = sort.Search(len(b.runs), func(i int) bool { return b.runs[i].elem >= e })
	return i, i < len(b.runs) && b.runs[i].elem == e
}

// Ins returns ins(b, e).
func (b Bag) Ins(e Elem) Bag {
	i, found := b.search(e)
	if found {
		out := append([]bagRun(nil), b.runs...)
		out[i].n++
		return Bag{runs: out, size: b.size + 1}
	}
	out := make([]bagRun, 0, len(b.runs)+1)
	out = append(out, b.runs[:i]...)
	out = append(out, bagRun{elem: e, n: 1})
	out = append(out, b.runs[i:]...)
	return Bag{runs: out, size: b.size + 1}
}

// Del returns del(b, e): b with one occurrence of e removed, or b
// unchanged when e is absent (del(emp, e) = emp).
func (b Bag) Del(e Elem) Bag {
	i, found := b.search(e)
	if !found {
		return b
	}
	if b.runs[i].n > 1 {
		out := append([]bagRun(nil), b.runs...)
		out[i].n--
		return Bag{runs: out, size: b.size - 1}
	}
	out := make([]bagRun, 0, len(b.runs)-1)
	out = append(out, b.runs[:i]...)
	out = append(out, b.runs[i+1:]...)
	return Bag{runs: out, size: b.size - 1}
}

// IsEmp reports isEmp(b).
func (b Bag) IsEmp() bool { return b.size == 0 }

// IsIn reports isIn(b, e).
func (b Bag) IsIn(e Elem) bool {
	_, found := b.search(e)
	return found
}

// Count returns the multiplicity of e in b.
func (b Bag) Count(e Elem) int {
	if i, found := b.search(e); found {
		return b.runs[i].n
	}
	return 0
}

// Size returns the total number of elements (with multiplicity).
func (b Bag) Size() int { return b.size }

// Best returns best(b), the highest-priority (largest) element, per the
// priority-queue trait of Figure 3-1. ok is false when b is empty
// (best(emp) is unspecified by the trait).
func (b Bag) Best() (e Elem, ok bool) {
	if len(b.runs) == 0 {
		return 0, false
	}
	return b.runs[len(b.runs)-1].elem, true
}

// Elems returns the elements in ascending order, each repeated by its
// multiplicity (a copy).
func (b Bag) Elems() []Elem {
	if b.size == 0 {
		return nil
	}
	out := make([]Elem, 0, b.size)
	for _, r := range b.runs {
		for k := 0; k < r.n; k++ {
			out = append(out, r.elem)
		}
	}
	return out
}

// Equal reports whether two bags hold the same multiset.
func (b Bag) Equal(other Bag) bool {
	if b.size != other.size || len(b.runs) != len(other.runs) {
		return false
	}
	for i, r := range b.runs {
		if r != other.runs[i] {
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
	for _, r := range b.runs {
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
