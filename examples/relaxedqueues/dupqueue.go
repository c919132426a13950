package main

import (
	"sync/atomic"

	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
)

// dupSegSize is the slot count of a DupQueue segment.
const dupSegSize = 64

type dupSeg struct {
	idx   uint64
	slots [dupSegSize]dupSlot
	next  atomic.Pointer[dupSeg]
}

type dupSlot struct {
	ready atomic.Uint32
	val   int
}

// DupQueue is the lock-free semiqueue of the "duplicated, never lost"
// kind: dequeues read the front element and then advance the front
// with a single CAS, returning the element whether or not the CAS won.
// A lost race hands the same element to two callers — a stutter — but
// the front index only ever advances past an element that was
// returned, so nothing is lost. It keeps constraint R (only the
// current front is ever read) and trades X, landing on the stuttering
// rung of Section 4.2.2.
//
// Each dequeuing goroutine returns a given element at most once: its
// CAS either advances the front past the element or fails because
// another dequeuer already advanced it, so the goroutine's next read
// sees a later front. With w dequeuers that bounds the held-element
// window at 1+w, which is exactly the MultiSemiqueue(1+w) claim —
// serve within the window, or re-serve something already served.
type DupQueue struct {
	enq  atomic.Uint64
	deq  atomic.Uint64
	head atomic.Pointer[dupSeg]
	tail atomic.Pointer[dupSeg]
	j    *Journal
}

// NewDupQueue returns an empty duplicating queue recording into j (nil
// for unrecorded runs).
func NewDupQueue(j *Journal) *DupQueue {
	s := &dupSeg{}
	q := &DupQueue{j: j}
	q.head.Store(s)
	q.tail.Store(s)
	return q
}

// Name implements RelaxedQueue.
func (q *DupQueue) Name() string { return "dup" }

// Claim implements RelaxedQueue: the {R} rung — MultiSemiqueue(1+w).
func (q *DupQueue) Claim() Claim {
	return Claim{
		Lattice: func(w int) *lattice.Relaxation { return QueueLattice(1, w) },
		Levels:  QueueLevels,
		Level:   LevelOrdered,
	}
}

// NewEnqueuer implements RelaxedQueue: the queue is its own handle.
func (q *DupQueue) NewEnqueuer() Enqueuer { return q }

// NewDequeuer implements RelaxedQueue: the queue is its own handle.
func (q *DupQueue) NewDequeuer() Dequeuer { return q }

// findSeg returns segment idx, appending missing segments on the way.
func (q *DupQueue) findSeg(idx uint64) *dupSeg {
	s := q.tail.Load()
	if s.idx > idx {
		s = q.head.Load()
	}
	for s.idx < idx {
		next := s.next.Load()
		if next == nil {
			n := &dupSeg{idx: s.idx + 1}
			if s.next.CompareAndSwap(nil, n) {
				next = n
			} else {
				next = s.next.Load()
			}
		}
		s = next
	}
	if t := q.tail.Load(); t.idx < s.idx {
		q.tail.CompareAndSwap(t, s)
	}
	return s
}

// Enq implements Enqueuer. The linearization ticket is taken
// before the slot is claimed, not after: an enqueuer preempted between
// the two then holds an early ticket for a late slot — its element sits
// unserved, the oldest of the window, until it resumes — which is one
// held element per in-flight operation, the skew the claim's +w
// absorbs. Ticketing after the claim would be unbounded the other way:
// every enqueue that overtook the stalled one in ticket order queues
// behind its slot, so the stalled element, served first, would appear
// arbitrarily deep in the recorded arrival order.
func (q *DupQueue) Enq(e int) {
	var t uint64
	if q.j != nil {
		t = q.j.Tick()
	}
	i := q.enq.Add(1) - 1
	s := q.findSeg(i / dupSegSize)
	sl := &s.slots[i%dupSegSize]
	sl.val = e
	sl.ready.Store(1)
	if q.j != nil {
		q.j.Record(t, history.Enq(e))
	}
}

// Deq implements Dequeuer: read the front, then race to advance
// it. The element is returned regardless of the race's outcome.
func (q *DupQueue) Deq() (int, bool) {
	hs := q.head.Load()
	h := q.deq.Load()
	if h >= q.enq.Load() {
		return 0, false
	}
	// The head segment's index never exceeds the front's segment (head
	// is only ever swung to a segment the front had reached), so the
	// walk is forward; a nil hop means the front's enqueue is still
	// creating its segment.
	s := hs
	for s.idx < h/dupSegSize {
		next := s.next.Load()
		if next == nil {
			return 0, false
		}
		s = next
	}
	if s != hs {
		// Swing head to the front's segment: later dequeues start
		// their walk here and the crossed segments become collectable.
		// deq only grows, so s still trails the front.
		q.head.CompareAndSwap(hs, s)
	}
	sl := &s.slots[h%dupSegSize]
	if sl.ready.Load() == 0 {
		return 0, false
	}
	v := sl.val
	if q.j != nil {
		q.j.Record(q.j.Tick(), history.DeqOk(v))
	}
	q.deq.CompareAndSwap(h, h+1)
	return v, true
}
