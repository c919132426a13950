package main

import (
	"sync"

	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
)

// Strict is the mutex-guarded strict FIFO queue: the baseline every
// relaxed structure is benchmarked against. Its linearization tickets
// are taken while the lock is held, so the recorded order is exactly
// the structure order — it claims the top of the lattice with no skew
// slack.
type Strict struct {
	mu sync.Mutex
	// ring is a power-of-two circular buffer; guarded by mu.
	ring []int
	head int // guarded by mu
	n    int // guarded by mu
	j    *Journal
}

// NewStrict returns an empty strict queue recording into j (nil for
// unrecorded runs).
func NewStrict(j *Journal) *Strict {
	return &Strict{ring: make([]int, 1024), j: j}
}

// Name implements RelaxedQueue.
func (q *Strict) Name() string { return "strict" }

// Claim implements RelaxedQueue: the {X,R} rung — the FIFO queue.
func (q *Strict) Claim() Claim {
	return Claim{
		Lattice: func(w int) *lattice.Relaxation { return QueueLattice(1, w) },
		Levels:  QueueLevels,
		Level:   LevelFIFO,
	}
}

// NewEnqueuer implements RelaxedQueue: the queue is its own handle.
func (q *Strict) NewEnqueuer() Enqueuer { return q }

// NewDequeuer implements RelaxedQueue: the queue is its own handle.
func (q *Strict) NewDequeuer() Dequeuer { return q }

// Enq implements Enqueuer.
func (q *Strict) Enq(e int) {
	q.mu.Lock()
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = e
	q.n++
	if q.j != nil {
		q.j.Record(q.j.Tick(), history.Enq(e))
	}
	q.mu.Unlock()
}

// Deq implements Dequeuer: strict FIFO removal.
func (q *Strict) Deq() (int, bool) {
	q.mu.Lock()
	if q.n == 0 {
		q.mu.Unlock()
		return 0, false
	}
	v := q.ring[q.head]
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	if q.j != nil {
		q.j.Record(q.j.Tick(), history.DeqOk(v))
	}
	q.mu.Unlock()
	return v, true
}

// grow doubles the ring. It is only called from Enq with mu already
// held.
func (q *Strict) grow() {
	grown := make([]int, 2*len(q.ring))
	for i := 0; i < q.n; i++ {
		grown[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring, q.head = grown, 0
}
