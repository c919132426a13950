package value

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

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
	return Bag{&bagData{runs: runs, size: len(elems)}}
}

func sortedCopy(items []Elem) []Elem {
	out := copyElems(items)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Count returns the multiplicity of e in b.
func (b Bag) Count(e Elem) int {
	if i, found := b.search(e); found {
		return b.d.runs[i].n
	}
	return 0
}

// bagFrom interprets a byte string as a sequence of ins operations.
func bagFrom(xs []uint8) Bag {
	b := EmptyBag()
	for _, x := range xs {
		b = b.Ins(Elem(x % 8))
	}
	return b
}

func TestBagBasics(t *testing.T) {
	b := EmptyBag()
	if !b.IsEmp() || b.Size() != 0 {
		t.Fatalf("empty bag: %v", b)
	}
	b = b.Ins(3).Ins(1).Ins(3)
	if b.IsEmp() || b.Size() != 3 {
		t.Fatalf("bag after ins: %v", b)
	}
	if !b.IsIn(3) || !b.IsIn(1) || b.IsIn(2) {
		t.Errorf("membership wrong: %v", b)
	}
	if b.Count(3) != 2 || b.Count(1) != 1 || b.Count(9) != 0 {
		t.Errorf("count wrong: %v", b)
	}
}

// The paper's worked equation: del(ins(ins(emp,3),3),3) = ins(emp,3).
func TestBagPaperEquation(t *testing.T) {
	lhs := EmptyBag().Ins(3).Ins(3).Del(3)
	rhs := EmptyBag().Ins(3)
	if !lhs.Equal(rhs) {
		t.Errorf("del(ins(ins(emp,3),3),3) = %v, want %v", lhs, rhs)
	}
}

// Axiom: del(emp, e) = emp.
func TestBagAxiomDelEmp(t *testing.T) {
	for e := Elem(0); e < 5; e++ {
		if !EmptyBag().Del(e).Equal(EmptyBag()) {
			t.Errorf("del(emp, %d) != emp", e)
		}
	}
}

// Axiom: del(ins(b,e), e1) = if e = e1 then b else ins(del(b,e1), e).
func TestBagAxiomDelIns(t *testing.T) {
	f := func(xs []uint8, e0, e10 uint8) bool {
		b := bagFrom(xs)
		e, e1 := Elem(e0%8), Elem(e10%8)
		lhs := b.Ins(e).Del(e1)
		var rhs Bag
		if e == e1 {
			rhs = b
		} else {
			rhs = b.Del(e1).Ins(e)
		}
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Axioms: isEmp(emp) = true; isEmp(ins(b,e)) = false.
func TestBagAxiomIsEmp(t *testing.T) {
	f := func(xs []uint8, e uint8) bool {
		return EmptyBag().IsEmp() && !bagFrom(xs).Ins(Elem(e%8)).IsEmp()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Axioms: isIn(emp,e) = false; isIn(ins(b,e), e1) = (e = e1) ∨ isIn(b, e1).
func TestBagAxiomIsIn(t *testing.T) {
	f := func(xs []uint8, e0, e10 uint8) bool {
		b := bagFrom(xs)
		e, e1 := Elem(e0%8), Elem(e10%8)
		if EmptyBag().IsIn(e) {
			return false
		}
		return b.Ins(e).IsIn(e1) == ((e == e1) || b.IsIn(e1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Multiset semantics: insertion order does not matter.
func TestBagInsertionOrderIrrelevant(t *testing.T) {
	f := func(xs []uint8) bool {
		fwd := bagFrom(xs)
		rev := EmptyBag()
		for i := len(xs) - 1; i >= 0; i-- {
			rev = rev.Ins(Elem(xs[i] % 8))
		}
		return fwd.Equal(rev)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Priority-queue trait (Figure 3-1) axiom:
// best(ins(q,e)) = if isEmp(q) then e else if e > best(q) then e else best(q).
func TestBagAxiomBest(t *testing.T) {
	f := func(xs []uint8, e0 uint8) bool {
		q := bagFrom(xs)
		e := Elem(e0 % 8)
		got, ok := q.Ins(e).Best()
		if !ok {
			return false // ins never empty
		}
		if q.IsEmp() {
			return got == e
		}
		prev, _ := q.Best()
		want := prev
		if e > prev {
			want = e
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBagBestEmpty(t *testing.T) {
	if _, ok := EmptyBag().Best(); ok {
		t.Errorf("best(emp) should not be defined")
	}
}

func TestBagImmutability(t *testing.T) {
	b := BagOf(1, 2, 3)
	_ = b.Ins(4)
	_ = b.Del(2)
	if !b.Equal(BagOf(1, 2, 3)) {
		t.Errorf("bag mutated: %v", b)
	}
	elems := b.Elems()
	elems[0] = 99
	if !b.Equal(BagOf(1, 2, 3)) {
		t.Errorf("bag aliased by Elems: %v", b)
	}
}

func TestBagStringAndKey(t *testing.T) {
	b := BagOf(3, 1, 2)
	if b.String() != "{1 2 3}" {
		t.Errorf("String = %q", b.String())
	}
	if b.Key() != BagOf(2, 3, 1).Key() {
		t.Errorf("Key not canonical")
	}
	if EmptyBag().String() != "{}" {
		t.Errorf("empty String = %q", EmptyBag().String())
	}
}

// Size/Count consistency: Size = Σ_e Count(e).
func TestBagSizeCountConsistent(t *testing.T) {
	f := func(xs []uint8) bool {
		b := bagFrom(xs)
		total := 0
		for e := Elem(0); e < 8; e++ {
			total += b.Count(e)
		}
		return total == b.Size() && b.Size() == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sliceBag is the oracle for the counted representation: the multiset
// as one sorted slice, every operation written the obvious O(size) way.
type sliceBag []Elem

func (s sliceBag) ins(e Elem) sliceBag {
	return sliceBag(sortedCopy(append(copyElems(s), e)))
}

func (s sliceBag) del(e Elem) sliceBag {
	for i, x := range s {
		if x == e {
			return append(copyElems(s[:i]), s[i+1:]...)
		}
	}
	return s
}

func (s sliceBag) count(e Elem) int {
	n := 0
	for _, x := range s {
		if x == e {
			n++
		}
	}
	return n
}

// Random Ins/Del/BagOf sequences: every observer of the counted bag
// agrees with the sorted-slice oracle at every step, including Del of
// an absent element and elements outside 1..9 (negative, zero, large).
func TestBagMatchesSortedSliceOracle(t *testing.T) {
	domain := []Elem{-3, 0, 1, 2, 3, 5, 9, 10, 1 << 40}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		b, oracle := EmptyBag(), sliceBag(nil)
		owned := EmptyBag().Clone() // follows b through Add and Remove
		var prev Bag
		var prevOracle sliceBag
		for step := 0; step < 60; step++ {
			prev, prevOracle = b, oracle
			e := domain[rng.Intn(len(domain))]
			switch k := rng.Intn(10); {
			case k < 5:
				b, oracle = b.Ins(e), oracle.ins(e)
				owned.Add(e)
			case k < 9:
				b, oracle = b.Del(e), oracle.del(e) // often absent
				if present := prevOracle.count(e) > 0; owned.Remove(e) != present || (!present && b.d != prev.d) {
					t.Fatalf("Del/Remove of %d from %v: present %v, Del returned a new bag %v", e, prev, present, b.d != prev.d)
				}
			default:
				b = BagOf(shuffled(rng, oracle)...)
			}
			checkBagAgainst(t, owned, oracle)
			checkCloneSharesNothing(t, b, e)
			checkBagAgainst(t, b, oracle)
			checkBagAgainst(t, prev, prevOracle) // the receiver was not mutated
			if got, want := b.Equal(prev), b.Key() == prev.Key(); got != want {
				t.Fatalf("Equal(%v, %v) = %v, keys say %v", b, prev, got, want)
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// checkCloneSharesNothing updates clones of b in place — one gains e,
// one is emptied by Remove — and asserts b's Key and Elems are
// unchanged and the emptied clone is emp.
func checkCloneSharesNothing(t *testing.T, b Bag, e Elem) {
	t.Helper()
	key, elems := b.Key(), b.Elems()
	grown, emptied := b.Clone(), b.Clone()
	grown.Add(e)
	for _, x := range elems {
		emptied.Remove(x)
	}
	if b.Key() != key || !reflect.DeepEqual(b.Elems(), elems) {
		t.Fatalf("updating clones of %s changed it to %v", key, b)
	}
	if grown.Key() != b.Ins(e).Key() {
		t.Fatalf("clone of %s after Add(%d) = %v", key, e, grown)
	}
	if !emptied.Equal(EmptyBag()) || !EmptyBag().Equal(emptied) || emptied.Key() != EmptyBag().Key() || !emptied.IsEmp() {
		t.Fatalf("clone of %s emptied by Remove = %v, not emp", key, emptied)
	}
}

// An update boxed as a Value (as every automaton and fold step boxes
// it) costs two allocations: the runs and the one-pointer header.
// Boxing a Bag allocates nothing, so the header takes the place of the
// box a multi-word bag would need. A Del of an absent element costs
// none.
func TestBagInsDelAllocs(t *testing.T) {
	b := BagOf(1, 2, 2, 3)
	var sink Value
	for _, c := range []struct {
		name string
		op   func() Bag
		want float64
	}{
		{"Ins present", func() Bag { return b.Ins(2) }, 2},
		{"Ins absent", func() Bag { return b.Ins(4) }, 2},
		{"Del of one of two", func() Bag { return b.Del(2) }, 2},
		{"Del of the last", func() Bag { return b.Del(3) }, 2},
		{"Del absent", func() Bag { return b.Del(9) }, 0},
	} {
		if got := testing.AllocsPerRun(100, func() { sink = c.op() }); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
	_ = sink
}

func TestMPQClone(t *testing.T) {
	m := MPQ{Present: BagOf(1, 2, 2), Absent: BagOf(3)}
	key := m.Key()
	c := m.Clone()
	c.Present.Add(5)
	c.Present.Remove(2)
	c.Absent.Add(2)
	c.Absent.Remove(3)
	if m.Key() != key {
		t.Fatalf("updating a clone changed %s to %s", key, m.Key())
	}
	if want := (MPQ{Present: BagOf(1, 2, 5), Absent: BagOf(2)}).Key(); c.Key() != want {
		t.Fatalf("clone = %s, want %s", c.Key(), want)
	}
	e := EmptyMPQ().Clone()
	e.Present.Add(1)
	e.Present.Remove(1)
	if e.Key() != EmptyMPQ().Key() || !e.Present.Equal(EmptyBag()) || !e.Absent.Equal(EmptyBag()) {
		t.Fatalf("emptied clone of EmptyMPQ = %s", e.Key())
	}
	if got, ok := Clone(m).(MPQ); !ok || got.Key() != key {
		t.Fatalf("Clone(%s) = %v", key, Clone(m))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of a Seq did not panic")
		}
	}()
	Clone(EmptySeq())
}

func shuffled(rng *rand.Rand, s sliceBag) []Elem {
	out := copyElems(s)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func checkBagAgainst(t *testing.T, b Bag, oracle sliceBag) {
	t.Helper()
	if got, want := b.Key(), "B"+elemsKey(oracle); got != want {
		t.Errorf("Key = %q, oracle %q", got, want)
	}
	if got, want := b.String(), "{"+strings.Trim(elemsKey(oracle), "[]")+"}"; got != want {
		t.Errorf("String = %q, oracle %q", got, want)
	}
	if got := b.Elems(); !reflect.DeepEqual(got, copyElems(oracle)) {
		t.Errorf("Elems = %v, oracle %v", got, []Elem(oracle))
	}
	if b.Size() != len(oracle) || b.IsEmp() != (len(oracle) == 0) {
		t.Errorf("Size = %d, IsEmp = %v, oracle size %d", b.Size(), b.IsEmp(), len(oracle))
	}
	best, ok := b.Best()
	if ok != (len(oracle) > 0) || (ok && best != oracle[len(oracle)-1]) {
		t.Errorf("Best = %d, %v on oracle %v", best, ok, []Elem(oracle))
	}
	for _, e := range []Elem{-3, -1, 0, 1, 2, 3, 4, 5, 9, 10, 1 << 40} {
		if got, want := b.Count(e), oracle.count(e); got != want || b.IsIn(e) != (want > 0) {
			t.Errorf("Count(%d) = %d, IsIn = %v, oracle %d", e, got, b.IsIn(e), want)
		}
	}
	if !b.Equal(BagOf(oracle...)) || b.Equal(BagOf(oracle...).Ins(4)) {
		t.Errorf("Equal disagrees with the oracle's bag on %v", b)
	}
}
