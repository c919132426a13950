// Package specs defines the paper's simple object automata as executable
// Larch interfaces: the bag (Figure 2-2), FIFO queue (Figure 2-4),
// priority queue (Figure 3-2), multi-priority queue (Figure 3-3),
// out-of-order priority queue (Figure 3-4), degenerate priority queue
// (Figure 3-5), semiqueue (Figure 4-1), stuttering queue (Figure 4-3),
// the combined SSqueue_jk (Section 4.2.2), and the bank account family
// (Section 3.4).
package specs

import (
	"fmt"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/value"
)

func asBag(s value.Value) value.Bag {
	b, ok := s.(value.Bag)
	if !ok {
		panic(fmt.Sprintf("specs: state %T is not a Bag", s))
	}
	return b
}

func asSeq(s value.Value) value.Seq {
	q, ok := s.(value.Seq)
	if !ok {
		panic(fmt.Sprintf("specs: state %T is not a Seq", s))
	}
	return q
}

// enqElem extracts the element of an Enq(e)/Ok() execution, reporting
// ok=false for malformed executions (wrong arity or abnormal
// termination), which the automata reject.
func enqElem(op history.Op) (value.Elem, bool) {
	if len(op.Args) != 1 || len(op.Res) != 0 || op.Term != history.Ok {
		return 0, false
	}
	return value.Elem(op.Args[0]), true
}

// deqElem extracts the result of a Deq()/Ok(e) execution.
func deqElem(op history.Op) (value.Elem, bool) {
	if len(op.Args) != 0 || len(op.Res) != 1 || op.Term != history.Ok {
		return 0, false
	}
	return value.Elem(op.Res[0]), true
}

// bagEnq is Enq(e)/Ok() ensures b' = ins(b, e), applied in place.
func bagEnq(s value.Value, op history.Op) bool {
	e, ok := enqElem(op)
	if ok {
		asBag(s).Add(e)
	}
	return ok
}

// bagNonEmpty is the requires clause ¬isEmp(b).
func bagNonEmpty(s value.Value, _ history.Op) bool { return !asBag(s).IsEmp() }

// BagAutomaton returns the bag automaton of Figures 2-1/2-2:
//
//	Enq(e)/Ok()  ensures b' = ins(b, e)
//	Deq()/Ok(e)  requires ¬isEmp(b)  ensures isIn(b, e) ∧ b' = del(b, e)
func BagAutomaton() *automaton.Spec {
	return automaton.NewSpec("Bag", value.EmptyBag(),
		automaton.OpSpec{Name: history.NameEnq, Apply: bagEnq},
		automaton.OpSpec{
			Name: history.NameDeq,
			Pre:  bagNonEmpty,
			Apply: func(s value.Value, op history.Op) bool {
				e, ok := deqElem(op)
				return ok && asBag(s).Remove(e)
			},
		},
	)
}

// FIFOQueue returns the FIFO queue automaton of Figures 2-3/2-4:
//
//	Enq(e)/Ok()  ensures q' = ins(q, e)
//	Deq()/Ok(e)  requires ¬isEmp(q)  ensures e = first(q) ∧ q' = rest(q)
func FIFOQueue() *automaton.Spec {
	return automaton.NewSpec("FifoQueue", value.EmptySeq(),
		automaton.OpSpec{
			Name: history.NameEnq,
			Succ: func(s value.Value, op history.Op) []value.Value {
				e, ok := enqElem(op)
				if !ok {
					return nil
				}
				return []value.Value{asSeq(s).Ins(e)}
			},
		},
		automaton.OpSpec{
			Name: history.NameDeq,
			Pre: func(s value.Value, op history.Op) bool {
				return !asSeq(s).IsEmp()
			},
			Succ: func(s value.Value, op history.Op) []value.Value {
				e, ok := deqElem(op)
				if !ok {
					return nil
				}
				q := asSeq(s)
				first, nonEmpty := q.First()
				if !nonEmpty || first != e {
					return nil
				}
				return []value.Value{q.Rest()}
			},
		},
	)
}

// PriorityQueue returns the priority queue automaton of Figures 3-1/3-2:
//
//	Enq(e)/Ok()  ensures q' = ins(q, e)
//	Deq()/Ok(e)  requires ¬isEmp(q)  ensures e = best(q) ∧ q' = del(q, e)
func PriorityQueue() *automaton.Spec {
	return automaton.NewSpec("PQueue", value.EmptyBag(),
		automaton.OpSpec{Name: history.NameEnq, Apply: bagEnq},
		automaton.OpSpec{
			Name: history.NameDeq,
			Pre:  bagNonEmpty,
			Apply: func(s value.Value, op history.Op) bool {
				e, ok := deqElem(op)
				if !ok {
					return false
				}
				q := asBag(s)
				best, nonEmpty := q.Best()
				return nonEmpty && best == e && q.Remove(e)
			},
		},
	)
}

// MultiPriorityQueue returns the MPQ automaton of Figure 3-3. Its state
// is a record [present, absent]; Enq inserts into present, and Deq
// either transfers the best present item to absent and returns it, or
// re-returns an absent item whose priority exceeds every present item
// (a request serviced more than once). The two Deq disjuncts are
// exclusive (e = best(present) against e > best(present)), so every
// operation has at most one successor.
func MultiPriorityQueue() *automaton.Spec {
	asMPQ := func(s value.Value) value.MPQ { return s.(value.MPQ) }
	return automaton.NewSpec("MPQueue", value.EmptyMPQ(),
		automaton.OpSpec{
			Name: history.NameEnq,
			Apply: func(s value.Value, op history.Op) bool {
				e, ok := enqElem(op)
				if ok {
					asMPQ(s).Present.Add(e)
				}
				return ok
			},
		},
		automaton.OpSpec{
			Name: history.NameDeq,
			// Deq.pre_MPQ is true (noted in the proof of Theorem 4); an
			// unsatisfiable response set rejects instead.
			Apply: func(s value.Value, op history.Op) bool {
				e, ok := deqElem(op)
				if !ok {
					return false
				}
				m := asMPQ(s)
				best, nonEmpty := m.Present.Best()
				switch {
				case nonEmpty && e == best:
					// Disjunct 2: e = best(present); transfer to absent.
					m.Present.Remove(e)
					m.Absent.Add(e)
					return true
				case !nonEmpty || e > best:
					// Disjunct 1: isIn(absent, e) ∧ e > best(present); the
					// queue is unchanged (the request is serviced again).
					return m.Absent.IsIn(e)
				}
				return false
			},
		},
	)
}

// OutOfOrderQueue returns the OPQ automaton of Figure 3-4: behaviorally
// a bag — Deq removes some item, not necessarily the best.
func OutOfOrderQueue() *automaton.Spec {
	return BagAutomaton().Rename("OPQueue")
}

// DegeneratePriorityQueue returns the automaton of Figure 3-5: Deq
// returns (but does not necessarily remove) some item in the bag, so
// requests may be serviced multiple times and out of order.
func DegeneratePriorityQueue() *automaton.Spec {
	return automaton.NewSpec("DegenPQueue", value.EmptyBag(),
		automaton.OpSpec{Name: history.NameEnq, Apply: bagEnq},
		automaton.OpSpec{
			Name: history.NameDeq,
			Pre:  bagNonEmpty,
			Apply: func(s value.Value, op history.Op) bool {
				// ensures isIn(q, e) only: the item is not removed.
				e, ok := deqElem(op)
				return ok && asBag(s).IsIn(e)
			},
		},
	)
}
