package core

import (
	"relaxlattice/internal/automaton"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/specs"
)

// The FIFO family: the paper's Section 3.1 motivating example (a
// replicated FIFO queue managed by quorum consensus) carried through
// the full Section 3.3 program. The same constraints Q₁ (Deq quorums
// meet Enq quorums) and Q₂ (Deq quorums meet Deq quorums) apply, with
// the evaluation function η_fifo ("dequeue the oldest apparently
// unserved request"), and each relaxation is equivalent to a simple
// object automaton:
//
//	{Q₁,Q₂} → FifoQueue   (one-copy serializable)
//	{Q₁}    → MFQueue     (duplicates, never out of arrival order)
//	{Q₂}    → OPQueue     (out of order, never duplicated — a bag)
//	∅       → DegenPQueue (both)
//
// The {Q₁} equivalence is the FIFO analog of Theorem 4, checked by
// CheckFIFOTheorem.

// FIFOLattice returns the replicated FIFO queue's relaxation lattice
// {QCA(FifoQueue, Q, η_fifo) | Q ⊆ {Q₁, Q₂}}.
func FIFOLattice() *lattice.Relaxation {
	u := TaxiUniverse()
	return &lattice.Relaxation{
		Name:     "replicated-fifo-queue",
		Universe: u,
		Phi: func(s lattice.Set) (automaton.Automaton, bool) {
			name := "QCA(FIFO," + u.Format(s) + ",η)"
			return quorum.NewQCA(name, specs.FIFOQueue(), taxiRelation(u, s), quorum.FIFOFold()).Compiled(), true
		},
	}
}

// FIFOEquivalent returns the simple object automaton equivalent to each
// FIFO-lattice element.
func FIFOEquivalent(u *lattice.Universe, s lattice.Set) automaton.Automaton {
	q1 := s.Has(u.Index(ConstraintQ1))
	q2 := s.Has(u.Index(ConstraintQ2))
	switch {
	case q1 && q2:
		return specs.FIFOQueue()
	case q1:
		return specs.MultiFIFOQueue()
	case q2:
		return specs.OutOfOrderQueue()
	default:
		return specs.DegeneratePriorityQueue()
	}
}

// CheckFIFOTheorem verifies the FIFO analog of Theorem 4 up to the
// bound: L(QCA(FifoQueue, Q₁, η_fifo)) = L(MFQueue).
func CheckFIFOTheorem(b Bound) ClaimResult {
	qca := quorum.NewQCA("QCA(FIFO,{Q1},η)", specs.FIFOQueue(), quorum.Q1(), quorum.FIFOFold())
	mfq := specs.MultiFIFOQueue()
	return ClaimResult{
		Name:    "FIFO Theorem-4 analog",
		LHS:     qca.Name(),
		RHS:     mfq.Name(),
		Compare: automaton.Compare(qca.Compiled(), mfq, b.alphabet(), b.MaxLen),
	}
}

// CheckFIFOFamily verifies all four FIFO-lattice equivalences.
func CheckFIFOFamily(b Bound) []ClaimResult {
	u := TaxiUniverse()
	lat := FIFOLattice()
	var checks []func() ClaimResult
	for _, s := range u.SubsetsBySize() {
		checks = append(checks, func() ClaimResult {
			qca, _ := lat.Phi(s)
			simple := FIFOEquivalent(u, s)
			return ClaimResult{
				Name:    "FIFO family at " + u.Format(s),
				LHS:     qca.Name(),
				RHS:     simple.Name(),
				Compare: automaton.Compare(qca, simple, b.alphabet(), b.MaxLen),
			}
		})
	}
	return checkConcurrently(checks...)
}
