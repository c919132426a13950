package main

import (
	"sync"

	"relaxlattice/internal/history"
)

// StrictPQ is the mutex-guarded strict priority queue: the baseline
// the lane PQ is benchmarked against. One lock, one heap, tickets
// taken under the lock — it claims the top of the Section 3.3 lattice
// exactly.
type StrictPQ struct {
	mu sync.Mutex
	// heap is a binary max-heap; guarded by mu.
	heap []int
	j    *Journal
}

// NewStrictPQ returns an empty strict priority queue recording into j
// (nil for unrecorded runs).
func NewStrictPQ(j *Journal) *StrictPQ {
	return &StrictPQ{heap: make([]int, 0, 1024), j: j}
}

// Name implements RelaxedQueue.
func (q *StrictPQ) Name() string { return "strictpq" }

// Claim implements RelaxedQueue: the {Q₁,Q₂} rung — the priority queue.
func (q *StrictPQ) Claim() Claim {
	return Claim{
		Lattice: PQLattice,
		Levels:  PQLevels,
		Level:   LevelPQ,
	}
}

// NewEnqueuer implements RelaxedQueue: the queue is its own handle.
func (q *StrictPQ) NewEnqueuer() Enqueuer { return q }

// NewDequeuer implements RelaxedQueue: the queue is its own handle.
func (q *StrictPQ) NewDequeuer() Dequeuer { return q }

// Enq implements Enqueuer.
func (q *StrictPQ) Enq(e int) {
	q.mu.Lock()
	q.heap = heapPush(q.heap, e)
	if q.j != nil {
		q.j.Record(q.j.Tick(), history.Enq(e))
	}
	q.mu.Unlock()
}

// Deq implements Dequeuer: removes the best element.
func (q *StrictPQ) Deq() (int, bool) {
	q.mu.Lock()
	v, ok := popMax(&q.heap)
	if ok && q.j != nil {
		q.j.Record(q.j.Tick(), history.DeqOk(v))
	}
	q.mu.Unlock()
	return v, ok
}

// heapPush inserts e into the max-heap.
func heapPush(h []int, e int) []int {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// popMax removes the max-heap's root.
func popMax(h *[]int) (int, bool) {
	s := *h
	if len(s) == 0 {
		return 0, false
	}
	v := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(s) && s[l] > s[m] {
			m = l
		}
		if r < len(s) && s[r] > s[m] {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return v, true
}
