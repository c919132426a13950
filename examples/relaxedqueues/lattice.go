package main

import (
	"fmt"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/core"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/specs"
)

// Lattice-design note: every rung below is deterministic on histories
// of distinct elements (frontier of one automaton state per prefix).
// The online checker steps every viable rung on every operation, so a
// rung whose Deq branches keep-vs-remove (SSqueue, DegenPQueue) makes
// the frontier grow combinatorially on long near-empty runs — such
// specs stay available offline but are deliberately kept out of these
// certification lattices.

// Constraint names of the concurrent-queue relaxation lattice. Each
// names a property a structure's implementation either keeps or trades
// for scalability, mirroring how Section 4's degraded behaviors drop
// one axiom of the FIFO queue at a time.
const (
	// ConstraintX: dequeue claims are exclusive — no element is
	// returned twice. Kept by slot-CAS structures, dropped by the
	// duplicating queue.
	ConstraintX = "X"
	// ConstraintR: dequeues drain in arrival order (no reordering
	// window). Kept by front-only structures, dropped by the k-segment
	// queue.
	ConstraintR = "R"
)

// Rungs of the concurrent-queue lattice (Claims table names).
const (
	LevelFIFO      = "fifo"      // {X,R}: the strict FIFO queue
	LevelExclusive = "exclusive" // {X}: exclusive but k-reordered (semiqueue)
	LevelOrdered   = "ordered"   // {R}: front-ordered but duplicating (stuttering)
	LevelFree      = "free"      // ∅: both relaxations at once
)

// QueueUniverse returns the constraint universe {X, R} of the
// concurrent-queue lattice.
func QueueUniverse() *lattice.Universe {
	return lattice.NewUniverse(
		lattice.Constraint{Name: ConstraintX, Desc: "dequeue claims are exclusive: no element is returned twice"},
		lattice.Constraint{Name: ConstraintR, Desc: "dequeues drain in arrival order: no reordering window"},
	)
}

// QueueLattice returns the relaxation lattice the concurrent queues
// claim into, for a structure with in-structure reordering window k
// observed by at most w concurrent dequeuing goroutines:
//
//	φ({X,R}) = FIFOQueue              (strict: tickets taken under the lock)
//	φ({X})   = Semiqueue(k+w)         (exclusive, reordered within k, plus
//	                                   one held element per in-flight dequeuer)
//	φ({R})   = MultiSemiqueue(1+w)    (front-window service, racing dequeuers
//	                                   may re-serve an already-served element)
//	φ(∅)     = MultiSemiqueue(k+w)
//
// The +w slack in each index is the recorder's in-flight skew bound
// (see Journal): it is a property of observation, not of the
// structures, and vanishes at w = 1. The duplicating rungs use
// MultiSemiqueue rather than SSqueue: they admit the same duplication
// (serve within the window, or re-serve anything served before) but
// stay deterministic on distinct elements, so the online frontier does
// not explode (see the lattice-design note above). Monotonicity
// (dropping a constraint only enlarges the language) holds for every
// k ≥ 1, w ≥ 1 and is pinned by TestQueueLatticeMonotone.
func QueueLattice(k, w int) *lattice.Relaxation {
	if k < 1 || w < 1 {
		panic(fmt.Sprintf("relaxedqueues: QueueLattice(k=%d, w=%d), need k ≥ 1, w ≥ 1", k, w))
	}
	u := QueueUniverse()
	return &lattice.Relaxation{
		Name:     fmt.Sprintf("conc-queue-k%d-w%d", k, w),
		Universe: u,
		Phi: func(s lattice.Set) (automaton.Automaton, bool) {
			x := s.Has(u.Index(ConstraintX))
			r := s.Has(u.Index(ConstraintR))
			switch {
			case x && r:
				return specs.FIFOQueue(), true
			case x:
				return specs.Semiqueue(k + w), true
			case r:
				return specs.MultiSemiqueue(1 + w), true
			default:
				return specs.MultiSemiqueue(k + w), true
			}
		},
	}
}

// QueueLevels returns the rung→constraint-set table for a
// concurrent-queue lattice (the relaxcheck Claims map).
func QueueLevels(lat *lattice.Relaxation) map[string]lattice.Set {
	u := lat.Universe
	return map[string]lattice.Set{
		LevelFIFO:      u.Named(ConstraintX, ConstraintR),
		LevelExclusive: u.Named(ConstraintX),
		LevelOrdered:   u.Named(ConstraintR),
		LevelFree:      0,
	}
}

// Rungs of the priority-queue lattice, over the paper's Section 3.3
// universe {Q₁, Q₂}.
const (
	LevelPQ         = "pq"          // {Q₁,Q₂}: strict priority queue
	LevelRepeatBest = "repeat-best" // {Q₁}: best served, maybe repeatedly (MPQueue)
	LevelAnyOrder   = "any-order"   // {Q₂}: each served once, any order (OPQueue)
)

// PQLattice returns the priority-queue relaxation lattice the lane PQ
// claims into: the nonempty sublattice of the paper's Section 3.3
// lattice in its simple-automaton form — φ({Q₁,Q₂}) = PQ, φ({Q₁}) =
// MPQ, φ({Q₂}) = OPQ, with φ undefined on ∅. Restricting φ to a
// sublattice is the paper's own move for the semiqueue (Section 4.2.1,
// nonempty constraint sets only); here it drops the DegenPQueue rung,
// whose nondeterministic remove-or-keep Deq makes online frontiers
// explode (see the lattice-design note above) and which no structure
// here claims. The lane PQ removes each element exactly once (claims
// are CAS tickets), so its claim — {Q₂}, out-of-order but exactly-once — needs no dequeuer-skew
// slack and the lattice ignores the dequeuer count w.
func PQLattice(w int) *lattice.Relaxation {
	_ = w // the OPQueue rung is order-free; observation skew is absorbed for every w
	u := core.TaxiUniverse()
	return &lattice.Relaxation{
		Name:     "conc-priority-queue",
		Universe: u,
		Phi: func(s lattice.Set) (automaton.Automaton, bool) {
			q1 := s.Has(u.Index(core.ConstraintQ1))
			q2 := s.Has(u.Index(core.ConstraintQ2))
			switch {
			case q1 && q2:
				return specs.PriorityQueue(), true
			case q1:
				return specs.MultiPriorityQueue(), true
			case q2:
				return specs.OutOfOrderQueue(), true
			default:
				return nil, false
			}
		},
	}
}

// PQLevels returns the rung→constraint-set table for the priority-queue
// lattice.
func PQLevels(lat *lattice.Relaxation) map[string]lattice.Set {
	u := lat.Universe
	return map[string]lattice.Set{
		LevelPQ:         u.Named(core.ConstraintQ1, core.ConstraintQ2),
		LevelRepeatBest: u.Named(core.ConstraintQ1),
		LevelAnyOrder:   u.Named(core.ConstraintQ2),
	}
}
