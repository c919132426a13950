package value

import (
	"testing"
	"testing/quick"
)

// SeqOf builds a sequence with the given insertion order (first argument
// oldest).
func SeqOf(elems ...Elem) Seq {
	return Seq{items: copyElems(elems)}
}

func seqFrom(xs []uint8) Seq {
	q := EmptySeq()
	for _, x := range xs {
		q = q.Ins(Elem(x % 8))
	}
	return q
}

// FifoQ trait (Figure 2-3) axiom:
// first(ins(q,e)) = if isEmp(q) then e else first(q).
func TestSeqAxiomFirst(t *testing.T) {
	f := func(xs []uint8, e0 uint8) bool {
		q := seqFrom(xs)
		e := Elem(e0 % 8)
		got, ok := q.Ins(e).First()
		if !ok {
			return false
		}
		if q.IsEmp() {
			return got == e
		}
		want, _ := q.First()
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FifoQ trait axiom (intended form; the TR's printing drops the ins):
// rest(ins(q,e)) = if isEmp(q) then emp else ins(rest(q), e).
func TestSeqAxiomRest(t *testing.T) {
	f := func(xs []uint8, e0 uint8) bool {
		q := seqFrom(xs)
		e := Elem(e0 % 8)
		lhs := q.Ins(e).Rest()
		var rhs Seq
		if q.IsEmp() {
			rhs = EmptySeq()
		} else {
			rhs = q.Rest().Ins(e)
		}
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The paper's worked equation: first(ins(ins(emp,3),3)) = 3.
func TestSeqPaperEquation(t *testing.T) {
	q := EmptySeq().Ins(3).Ins(3)
	if e, ok := q.First(); !ok || e != 3 {
		t.Errorf("first = %d, %v", e, ok)
	}
}

func TestSeqFIFOOrder(t *testing.T) {
	q := SeqOf(1, 2, 3)
	var got []Elem
	for !q.IsEmp() {
		e, _ := q.First()
		got = append(got, e)
		q = q.Rest()
	}
	want := []Elem{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", got, want)
		}
	}
}

func TestSeqDelAt(t *testing.T) {
	q := SeqOf(1, 2, 3)
	if got := q.DelAt(1); !got.Equal(SeqOf(1, 3)) {
		t.Errorf("DelAt(1) = %v", got)
	}
	if got := q.DelAt(0); !got.Equal(SeqOf(2, 3)) {
		t.Errorf("DelAt(0) = %v", got)
	}
	if !q.Equal(SeqOf(1, 2, 3)) {
		t.Errorf("DelAt mutated receiver")
	}
}

func TestSeqGet(t *testing.T) {
	q := SeqOf(3, 1, 2)
	if q.Get(0) != 3 || q.Get(2) != 2 {
		t.Errorf("Get wrong")
	}
}

func TestSeqStringKey(t *testing.T) {
	q := SeqOf(2, 1)
	if q.String() != "<2 1>" {
		t.Errorf("String = %q", q.String())
	}
	if q.Key() == SeqOf(1, 2).Key() {
		t.Errorf("order must distinguish keys")
	}
	// Seq and Bag keys must not collide even with identical contents.
	if q.Key() == BagOf(2, 1).Key() {
		t.Errorf("Seq/Bag key collision")
	}
}

func TestSeqImmutability(t *testing.T) {
	q := SeqOf(1, 2)
	_ = q.Ins(3)
	_ = q.Rest()
	if !q.Equal(SeqOf(1, 2)) {
		t.Errorf("seq mutated: %v", q)
	}
	// Rest must not share a tail that a later Ins could clobber.
	r := q.Rest()
	_ = r.Ins(9)
	if !q.Equal(SeqOf(1, 2)) {
		t.Errorf("seq mutated via rest-append: %v", q)
	}
}
