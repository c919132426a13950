// Package core assembles the paper's machinery into its three worked
// relaxation lattices — the replicated real-time priority queue
// (Section 3.3), the replicated bank account (Section 3.4), and the
// transactional spool queue (Section 4.2) — and provides the bounded
// model-checking entry points that verify Theorem 4 and the paper's
// companion claims.
package core

import (
	"relaxlattice/internal/automaton"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/specs"
)

// Taxi constraint names.
const (
	ConstraintQ1 = "Q1"
	ConstraintQ2 = "Q2"
)

// TaxiUniverse returns the constraint universe {Q₁, Q₂} of Section 3.3.
func TaxiUniverse() *lattice.Universe {
	return lattice.NewUniverse(
		lattice.Constraint{Name: ConstraintQ1, Desc: "each initial Deq quorum intersects each final Enq quorum"},
		lattice.Constraint{Name: ConstraintQ2, Desc: "each initial Deq quorum intersects each final Deq quorum"},
	)
}

// taxiConstraints maps each taxi constraint to the quorum intersection
// relation it asserts.
var taxiConstraints = map[string]quorum.Relation{ConstraintQ1: quorum.Q1(), ConstraintQ2: quorum.Q2()}

// taxiRelation converts a constraint set to the quorum intersection
// relation it asserts.
func taxiRelation(u *lattice.Universe, s lattice.Set) quorum.Relation {
	rel := quorum.NewRelation()
	for name, r := range taxiConstraints {
		if s.Has(u.Index(name)) {
			rel = rel.Union(r)
		}
	}
	return rel
}

// TaxiLevel is taxiRelation's inverse: the constraint set a realized
// relation guarantees, such as TaxiLevel(u, quorum.Joint(as...)).
func TaxiLevel(u *lattice.Universe, rel quorum.Relation) lattice.Set {
	var s lattice.Set
	for name, r := range taxiConstraints {
		if r.IsSubrelationOf(rel) {
			s |= u.Named(name)
		}
	}
	return s
}

// TaxiLattice returns the relaxation lattice of Section 3.3:
// {QCA(PQ, Q, η) | Q ⊆ {Q₁, Q₂}} with η the "dequeue the best
// apparently-unserved request" evaluation function.
func TaxiLattice() *lattice.Relaxation {
	u := TaxiUniverse()
	return &lattice.Relaxation{
		Name:     "replicated-priority-queue",
		Universe: u,
		Phi: func(s lattice.Set) (automaton.Automaton, bool) {
			name := "QCA(PQ," + u.Format(s) + ",η)"
			return quorum.NewQCA(name, specs.PriorityQueue(), taxiRelation(u, s), quorum.PQFold()).Compiled(), true
		},
	}
}

// TaxiLatticePrime returns the ablation lattice using the alternative
// evaluation function η′ (end of Section 3.3), which deletes skipped-
// over requests: it never services out of order but may ignore
// requests.
func TaxiLatticePrime() *lattice.Relaxation {
	u := TaxiUniverse()
	return &lattice.Relaxation{
		Name:     "replicated-priority-queue-eta-prime",
		Universe: u,
		Phi: func(s lattice.Set) (automaton.Automaton, bool) {
			name := "QCA(PQ," + u.Format(s) + ",η′)"
			return quorum.NewQCA(name, specs.PriorityQueue(), taxiRelation(u, s), quorum.PQPrimeFold()).Compiled(), true
		},
	}
}

// TaxiSimpleLattice returns the lattice with each QCA replaced by the
// equivalent simple object automaton the paper identifies: {Q₁,Q₂}→PQ,
// {Q₁}→MPQ (Theorem 4), {Q₂}→OPQ, ∅→DegenPQ. Bounded equivalence of
// TaxiLattice and TaxiSimpleLattice element-by-element is the paper's
// central result, checked by CheckTaxiEquivalences.
func TaxiSimpleLattice() *lattice.Relaxation {
	u := TaxiUniverse()
	return &lattice.Relaxation{
		Name:     "replicated-priority-queue-simple",
		Universe: u,
		Phi: func(s lattice.Set) (automaton.Automaton, bool) {
			return TaxiEquivalent(u, s), true
		},
	}
}

// TaxiEquivalent returns the simple object automaton the paper assigns
// to a taxi-lattice constraint set.
func TaxiEquivalent(u *lattice.Universe, s lattice.Set) automaton.Automaton {
	q1 := s.Has(u.Index(ConstraintQ1))
	q2 := s.Has(u.Index(ConstraintQ2))
	switch {
	case q1 && q2:
		return specs.PriorityQueue()
	case q1:
		return specs.MultiPriorityQueue()
	case q2:
		return specs.OutOfOrderQueue()
	default:
		return specs.DegeneratePriorityQueue()
	}
}
