package lattice

import (
	"strings"
	"testing"
	"testing/quick"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/specs"
)

// SetOf builds a Set from constraint indexes.
func SetOf(indexes ...int) Set {
	var s Set
	for _, i := range indexes {
		s |= 1 << uint(i)
	}
	return s
}

func TestSetOperations(t *testing.T) {
	s := SetOf(0, 2)
	if !s.Has(0) || s.Has(1) || !s.Has(2) {
		t.Errorf("membership wrong: %b", s)
	}
	if s.Size() != 2 {
		t.Errorf("Size = %d", s.Size())
	}
	if got := s.With(1); got.Size() != 3 {
		t.Errorf("With = %b", got)
	}
	if got := s.Without(0); got != SetOf(2) {
		t.Errorf("Without = %b", got)
	}
	if got := s.Union(SetOf(1)); got != SetOf(0, 1, 2) {
		t.Errorf("Union = %b", got)
	}
	if got := s.Intersect(SetOf(2, 3)); got != SetOf(2) {
		t.Errorf("Intersect = %b", got)
	}
	idx := s.Indexes()
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 2 {
		t.Errorf("Indexes = %v", idx)
	}
}

// Powerset lattice laws on Sets.
func TestSetLatticeLaws(t *testing.T) {
	f := func(a, b, c Set) bool {
		// Commutativity, associativity, absorption, idempotence.
		return a.Union(b) == b.Union(a) &&
			a.Intersect(b) == b.Intersect(a) &&
			a.Union(b.Union(c)) == a.Union(b).Union(c) &&
			a.Intersect(b.Intersect(c)) == a.Intersect(b).Intersect(c) &&
			a.Union(a.Intersect(b)) == a &&
			a.Intersect(a.Union(b)) == a &&
			a.Union(a) == a && a.Intersect(a) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubsetOf(t *testing.T) {
	f := func(a, b Set) bool {
		want := a&b == a
		return a.SubsetOf(b) == want && a.Intersect(b).SubsetOf(a) && a.SubsetOf(a.Union(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func testUniverse() *Universe {
	return NewUniverse(
		Constraint{Name: "Q1", Desc: "initial Deq quorums intersect final Enq quorums"},
		Constraint{Name: "Q2", Desc: "initial Deq quorums intersect final Deq quorums"},
	)
}

func TestUniverse(t *testing.T) {
	u := testUniverse()
	if u.Len() != 2 {
		t.Fatalf("Len = %d", u.Len())
	}
	if u.All() != SetOf(0, 1) {
		t.Errorf("All = %b", u.All())
	}
	if u.Index("Q2") != 1 || u.Index("nope") != -1 {
		t.Errorf("Index wrong")
	}
	if u.Named("Q1", "Q2") != u.All() {
		t.Errorf("Named wrong")
	}
	if u.Constraint(0).Name != "Q1" {
		t.Errorf("Constraint(0) = %v", u.Constraint(0))
	}
	if got := u.Format(u.All()); got != "{Q1, Q2}" {
		t.Errorf("Format = %q", got)
	}
	if got := u.Format(Empty); got != "∅" {
		t.Errorf("Format(∅) = %q", got)
	}
	subs := u.Subsets()
	if len(subs) != 4 {
		t.Errorf("Subsets = %v", subs)
	}
	bySize := u.SubsetsBySize()
	if bySize[0] != u.All() || bySize[len(bySize)-1] != Empty {
		t.Errorf("SubsetsBySize order: %v", bySize)
	}
}

func TestUniversePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty name": func() { NewUniverse(Constraint{}) },
		"dup name":   func() { NewUniverse(Constraint{Name: "A"}, Constraint{Name: "A"}) },
		"unknown":    func() { testUniverse().Named("nope") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// A toy relaxation lattice over the SSqueue family: constraint J means
// "items are never returned twice" (j=1), constraint K means "items are
// never returned out of order" (k=1). Relaxing J bumps j to 2; relaxing
// K bumps k to 2.
func ssqLattice() *Relaxation {
	u := NewUniverse(
		Constraint{Name: "J", Desc: "no duplicate returns"},
		Constraint{Name: "K", Desc: "no out-of-order returns"},
	)
	return &Relaxation{
		Name:     "ssq-demo",
		Universe: u,
		Phi: func(s Set) (automaton.Automaton, bool) {
			j, k := 2, 2
			if s.Has(0) {
				j = 1
			}
			if s.Has(1) {
				k = 1
			}
			return specs.SSQueue(j, k), true
		},
	}
}

func TestRelaxationPreferredAndDomain(t *testing.T) {
	r := ssqLattice()
	if got := r.Preferred().Name(); got != "SSqueue_1_1" {
		t.Errorf("Preferred = %q", got)
	}
	domain := r.Domain()
	if len(domain) != 4 {
		t.Fatalf("Domain = %v", domain)
	}
	if domain[0] != r.Universe.All() || domain[len(domain)-1] != Empty {
		t.Errorf("Domain order: %v", domain)
	}
}

func TestRelaxationMonotone(t *testing.T) {
	r := ssqLattice()
	violations := r.VerifyMonotone(history.QueueAlphabet(2), 4)
	if len(violations) != 0 {
		t.Fatalf("violations: %v", violations[0])
	}
}

func TestVerifyMonotoneDetectsViolation(t *testing.T) {
	// A deliberately broken lattice: relaxing accepts *fewer* histories.
	u := NewUniverse(Constraint{Name: "C", Desc: "x"})
	broken := &Relaxation{
		Name:     "broken",
		Universe: u,
		Phi: func(s Set) (automaton.Automaton, bool) {
			if s == Empty {
				return specs.FIFOQueue(), true // weaker set, smaller language
			}
			return specs.SSQueue(2, 2), true
		},
	}
	violations := broken.VerifyMonotone(history.QueueAlphabet(2), 4)
	if len(violations) == 0 {
		t.Fatalf("expected violations")
	}
	v := violations[0]
	if v.Weaker != Empty || v.Stronger != u.All() || v.Witness == nil {
		t.Errorf("violation = %+v", v)
	}
}

func TestWeakestAccepting(t *testing.T) {
	r := ssqLattice()
	// FIFO history: accepted everywhere, so the top is the answer.
	fifo := history.History{history.Enq(1), history.Enq(2), history.DeqOk(1)}
	sets, ok := r.WeakestAccepting(fifo)
	if !ok || len(sets) != 1 || sets[0] != r.Universe.All() {
		t.Errorf("fifo: sets=%v ok=%v", sets, ok)
	}
	// Out-of-order but no duplicates: J holds, K violated.
	ooo := history.History{history.Enq(1), history.Enq(2), history.DeqOk(2)}
	sets, ok = r.WeakestAccepting(ooo)
	if !ok || len(sets) != 1 || sets[0] != r.Universe.Named("J") {
		t.Errorf("ooo: sets=%v ok=%v", sets, ok)
	}
	// Duplicate return in order: K holds, J violated.
	dup := history.History{history.Enq(1), history.DeqOk(1), history.DeqOk(1)}
	sets, ok = r.WeakestAccepting(dup)
	if !ok || len(sets) != 1 || sets[0] != r.Universe.Named("K") {
		t.Errorf("dup: sets=%v ok=%v", sets, ok)
	}
	// Not even the bottom accepts: dequeuing a never-enqueued element.
	bad := history.History{history.DeqOk(9)}
	if _, ok := r.WeakestAccepting(bad); ok {
		t.Errorf("bad history should not be accepted anywhere")
	}
}

func TestLevelsAndHasse(t *testing.T) {
	r := ssqLattice()
	levels := r.Levels()
	if len(levels) != 4 {
		t.Fatalf("Levels = %v", levels)
	}
	if levels[0].Behavior != "SSqueue_1_1" {
		t.Errorf("first level = %v", levels[0])
	}
	text := r.Hasse()
	for _, want := range []string{"{J, K} → SSqueue_1_1", "∅ → SSqueue_2_2", "{J} → SSqueue_1_2"} {
		if !strings.Contains(text, want) {
			t.Errorf("Hasse missing %q in:\n%s", want, text)
		}
	}
}

func TestPartialPhiPanicsWithoutTop(t *testing.T) {
	u := NewUniverse(Constraint{Name: "C", Desc: "x"})
	r := &Relaxation{
		Name:     "no-top",
		Universe: u,
		Phi:      func(s Set) (automaton.Automaton, bool) { return nil, false },
	}
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	r.Preferred()
}

func TestCensus(t *testing.T) {
	lat := ssqLattice()
	corpus := []history.History{
		{history.Enq(1), history.DeqOk(1)},                   // top
		{history.Enq(1), history.Enq(2), history.DeqOk(2)},   // {J}
		{history.Enq(1), history.DeqOk(1), history.DeqOk(1)}, // {K}
		{history.Enq(1), history.DeqOk(1), history.DeqOk(1)}, // {K}
		{history.DeqOk(9)}, // outside
	}
	counts, rejected := Census(lat, corpus)
	if rejected != 1 {
		t.Errorf("rejected = %d", rejected)
	}
	u := lat.Universe
	if counts[u.All()] != 1 || counts[u.Named("J")] != 1 || counts[u.Named("K")] != 2 {
		t.Errorf("counts = %v", counts)
	}
}
