package core

import (
	"strings"
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/specs"
)

var testBound = Bound{MaxElem: 2, MaxLen: 5}

func TestTheorem4(t *testing.T) {
	r := CheckTheorem4(testBound)
	if !r.Holds() {
		t.Fatalf("Theorem 4 failed:\nonly QCA: %v\nonly MPQ: %v", r.Compare.OnlyA, r.Compare.OnlyB)
	}
	// The languages must be non-trivial (more than pure-Enq histories).
	if r.Compare.CountA[3] <= 8 {
		t.Errorf("suspiciously small language at length 3: %d", r.Compare.CountA[3])
	}
}

func TestCompanionClaims(t *testing.T) {
	for _, r := range []ClaimResult{
		CheckOutOfOrderClaim(testBound),
		CheckDegenerateClaim(testBound),
		CheckOneCopySerializability(testBound),
	} {
		if !r.Holds() {
			t.Errorf("%s failed: onlyLHS=%v onlyRHS=%v", r.Name, r.Compare.OnlyA, r.Compare.OnlyB)
		}
	}
}

func TestAccountClaims(t *testing.T) {
	for _, r := range CheckAccountClaims(Bound{MaxElem: 2, MaxLen: 5}) {
		if !r.Holds() {
			t.Errorf("%s failed: onlyLHS=%v onlyRHS=%v", r.Name, r.Compare.OnlyA, r.Compare.OnlyB)
		}
	}
}

func TestCheckAllTaxiEquivalences(t *testing.T) {
	results := CheckAllTaxiEquivalences(Bound{MaxElem: 2, MaxLen: 4})
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if !r.Holds() {
			t.Errorf("%s failed", r.Name)
		}
	}
}

// TestCheckConcurrentlyOrderAndPanic: results come back in argument
// order whatever the schedule, and a check's panic reaches the caller's
// goroutine, where the experiment runner recovers it.
func TestCheckConcurrentlyOrderAndPanic(t *testing.T) {
	got := checkConcurrently(
		func() ClaimResult { return ClaimResult{Name: "a"} },
		func() ClaimResult { return ClaimResult{Name: "b"} },
		func() ClaimResult { return ClaimResult{Name: "c"} },
	)
	if len(got) != 3 || got[0].Name != "a" || got[1].Name != "b" || got[2].Name != "c" {
		t.Fatalf("results out of order: %+v", got)
	}
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	checkConcurrently(
		func() ClaimResult { return ClaimResult{} },
		func() ClaimResult { panic("boom") },
	)
	t.Fatal("no panic reached the caller")
}

func TestTaxiLatticeStructure(t *testing.T) {
	lat := TaxiLattice()
	if len(lat.Domain()) != 4 {
		t.Fatalf("domain = %v", lat.Domain())
	}
	if got := lat.Preferred().Name(); !strings.Contains(got, "Q1, Q2") {
		t.Errorf("preferred = %q", got)
	}
	violations := lat.VerifyMonotone(history.QueueAlphabet(2), 4)
	if len(violations) != 0 {
		t.Errorf("monotonicity violations: %v", violations[0])
	}
}

func TestTaxiSimpleLatticeMatchesQCALattice(t *testing.T) {
	qcaLat := TaxiLattice()
	simple := TaxiSimpleLattice()
	alphabet := history.QueueAlphabet(2)
	for _, s := range qcaLat.Universe.SubsetsBySize() {
		a, _ := qcaLat.Phi(s)
		b, _ := simple.Phi(s)
		res := automaton.Compare(a, b, alphabet, 4)
		if !res.Equal {
			t.Errorf("element %s: %s != %s (onlyA=%v onlyB=%v)",
				qcaLat.Universe.Format(s), a.Name(), b.Name(), res.OnlyA, res.OnlyB)
		}
	}
}

func TestTaxiEquivalentMapping(t *testing.T) {
	u := TaxiUniverse()
	cases := map[lattice.Set]string{
		u.All():       "PQueue",
		u.Named("Q1"): "MPQueue",
		u.Named("Q2"): "OPQueue",
		lattice.Empty: "DegenPQueue",
	}
	for s, want := range cases {
		if got := TaxiEquivalent(u, s).Name(); got != want {
			t.Errorf("TaxiEquivalent(%s) = %q, want %q", u.Format(s), got, want)
		}
	}
}

// The η′ ablation: at {Q₂} the η′ lattice never services out of order,
// unlike the η lattice — but it may ignore requests.
func TestEtaPrimeAblation(t *testing.T) {
	u := TaxiUniverse()
	etaLat, primeLat := TaxiLattice(), TaxiLatticePrime()
	aEta, _ := etaLat.Phi(u.Named("Q2"))
	aPrime, _ := primeLat.Phi(u.Named("Q2"))
	outOfOrder := history.History{history.Enq(1), history.Enq(2), history.DeqOk(1), history.DeqOk(2)}
	if !automaton.Accepts(aEta, outOfOrder) {
		t.Errorf("η lattice should accept out-of-order service")
	}
	if automaton.Accepts(aPrime, outOfOrder) {
		t.Errorf("η′ lattice must not service the skipped request 2")
	}
	ignored := history.History{history.Enq(1), history.Enq(2), history.DeqOk(1)}
	if !automaton.Accepts(aPrime, ignored) {
		t.Errorf("η′ lattice should allow ignoring request 2")
	}
	// At the top of the lattice both coincide with PQ.
	top, _ := primeLat.Phi(u.All())
	res := automaton.Compare(top, specs.PriorityQueue(), history.QueueAlphabet(2), 4)
	if !res.Equal {
		t.Errorf("η′ at top differs from PQ: onlyA=%v onlyB=%v", res.OnlyA, res.OnlyB)
	}
	// Both lattices are monotone.
	if v := primeLat.VerifyMonotone(history.QueueAlphabet(2), 4); len(v) != 0 {
		t.Errorf("η′ lattice not monotone: %v", v[0])
	}
}

func TestAccountLatticeSublattice(t *testing.T) {
	lat := AccountLattice()
	// φ is defined only on sets containing A₂.
	domain := lat.Domain()
	if len(domain) != 2 {
		t.Fatalf("domain = %v", domain)
	}
	for _, s := range domain {
		if !s.Has(lat.Universe.Index(ConstraintA2)) {
			t.Errorf("domain element %s lacks A2", lat.Universe.Format(s))
		}
	}
	if lat.Preferred().Name() != "Account" {
		t.Errorf("preferred = %q", lat.Preferred().Name())
	}
	relaxed, ok := lat.Phi(lat.Universe.Named(ConstraintA2))
	if !ok || relaxed.Name() != "SpuriousAccount" {
		t.Errorf("relaxed = %v %v", relaxed, ok)
	}
	if v := lat.VerifyMonotone(history.AccountAlphabet(2), 4); len(v) != 0 {
		t.Errorf("not monotone: %v", v[0])
	}
}

func TestAccountLatticeUnrestricted(t *testing.T) {
	lat := AccountLatticeUnrestricted()
	if len(lat.Domain()) != 4 {
		t.Fatalf("domain = %v", lat.Domain())
	}
	bottom, _ := lat.Phi(lattice.Empty)
	if bottom.Name() != "OverdraftAccount" {
		t.Errorf("bottom = %q", bottom.Name())
	}
	if v := lat.VerifyMonotone(history.AccountAlphabet(2), 4); len(v) != 0 {
		t.Errorf("not monotone: %v", v[0])
	}
}

// Figure 4-2: the relaxation lattice for a three-item semiqueue.
func TestSemiqueueLatticeFigure42(t *testing.T) {
	lat := SemiqueueLattice(3)
	levels := lat.Levels()
	if len(levels) != 3 {
		t.Fatalf("levels = %v", levels)
	}
	wantSets := map[string]int{
		"Semiqueue_1": 4, // {C1}, {C1,C2}, {C1,C3}, {C1,C2,C3}
		"Semiqueue_2": 2, // {C2}, {C2,C3}
		"Semiqueue_3": 1, // {C3}
	}
	for _, lv := range levels {
		if want, ok := wantSets[lv.Behavior]; !ok || len(lv.Sets) != want {
			t.Errorf("level %s has %d sets, want %d", lv.Behavior, len(lv.Sets), wantSets[lv.Behavior])
		}
	}
	// The figure's paper version lists {C1},{C1,C2},{C1,C2,C3} on the
	// first row (a chain); the full powerset adds {C1,C3}. Check the
	// chain elements are present.
	u := lat.Universe
	first := levels[0]
	found := map[string]bool{}
	for _, s := range first.Sets {
		found[u.Format(s)] = true
	}
	for _, want := range []string{"{C1}", "{C1, C2}", "{C1, C2, C3}"} {
		if !found[want] {
			t.Errorf("Figure 4-2 row 1 missing %s; got %v", want, first.Sets)
		}
	}
	// φ is a homomorphism, not an isomorphism (noted in Section 4.2.1).
	if v := lat.VerifyMonotone(history.QueueAlphabet(2), 4); len(v) != 0 {
		t.Errorf("not monotone: %v", v[0])
	}
}

func TestStutteringAndCombinedLattices(t *testing.T) {
	stut := StutteringLattice(3)
	if top := stut.Preferred().Name(); top != "Stuttering_1" {
		t.Errorf("stuttering top = %q", top)
	}
	comb := CombinedSpoolLattice(3)
	if top := comb.Preferred().Name(); top != "SSqueue_1_1" {
		t.Errorf("combined top = %q", top)
	}
	if v := stut.VerifyMonotone(history.QueueAlphabet(2), 4); len(v) != 0 {
		t.Errorf("stuttering lattice not monotone")
	}
	if v := comb.VerifyMonotone(history.QueueAlphabet(2), 4); len(v) != 0 {
		t.Errorf("combined lattice not monotone")
	}
	// Bottom of the stuttering lattice accepts a triple service.
	bottom, _ := stut.Phi(stut.Universe.Named(ConstraintCk(3)))
	h := history.History{history.Enq(1), history.DeqOk(1), history.DeqOk(1), history.DeqOk(1)}
	if !automaton.Accepts(bottom, h) {
		t.Errorf("Stuttering_3 should accept triple service")
	}
	// Bottom of the combined lattice accepts a reorder and a stutter in
	// one history — neither component queue alone does (Section 4.2.2).
	combBottom, _ := comb.Phi(comb.Universe.Named(ConstraintCk(3)))
	mixed := history.History{history.Enq(1), history.Enq(2), history.DeqOk(2), history.DeqOk(2), history.DeqOk(1)}
	if !automaton.Accepts(combBottom, mixed) {
		t.Errorf("%s should accept the mixed reorder-and-stutter history", combBottom.Name())
	}
	semi := SemiqueueLattice(3)
	semiBottom, _ := semi.Phi(semi.Universe.Named(ConstraintCk(3)))
	for _, a := range []automaton.Automaton{bottom, semiBottom} {
		if automaton.Accepts(a, mixed) {
			t.Errorf("%s alone should reject the mixed history", a.Name())
		}
	}
}

func TestSpoolUniversePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	SpoolUniverse(0)
}
