package main

import (
	"fmt"
	"sync/atomic"

	"relaxlattice/internal/history"
)

// pqLaneCap is the initial lane ring capacity of the lane PQ: the
// standing backlog a producer may build before its ring grows. It is
// deliberately deep — the degraded regimes the paper targets are
// exactly the ones where requests pool up — so deep-backlog runs never
// pay growth copies.
const pqLaneCap = 1 << 16

// LanePQ is a lock-free relaxed priority queue in the k-LSM style:
// producers publish to single-writer lanes (shards) exactly as the
// k-segment queue does, and each dequeuer claims a run of up to b
// elements from the better-backlogged of two sampled shards, then
// serves its private buffer best-first by linear scan. There is no
// heap and no lock anywhere: priority order is maintained only within
// a dequeuer's private buffer, never globally, which is what removes
// the per-operation sift work that dominates a strict heap.
//
// The relaxation is therefore total order-wise: an element can wait in
// an unsampled shard while arbitrarily many worse elements are served.
// What survives exactly is exclusivity — claims are CAS tickets, so
// each element is served exactly once. That is constraint Q₂ of the
// paper's Section 3.3 universe with Q₁ traded: the OPQueue rung, with
// no dequeuer-skew slack needed at any w (order-free rungs absorb any
// serve order).
type LanePQ struct {
	b        int
	lanes    []*lane
	j        *Journal
	nextLane atomic.Uint32
	nextCur  atomic.Uint32
}

// NewLanePQ returns an empty lane PQ with the given shard count and
// per-claim run bound b, recording into j (nil for unrecorded runs).
// Create one Enqueuer per producing goroutine, at most one per shard.
// It panics if shards < 1 or b < 1.
func NewLanePQ(shards, b int, j *Journal) *LanePQ {
	if shards < 1 || b < 1 {
		panic(fmt.Sprintf("relaxedqueues: NewLanePQ(shards=%d, b=%d), need shards ≥ 1, b ≥ 1", shards, b))
	}
	q := &LanePQ{b: b, j: j, lanes: make([]*lane, shards)}
	for i := range q.lanes {
		q.lanes[i] = newLane(pqLaneCap)
	}
	return q
}

// Name implements RelaxedQueue.
func (q *LanePQ) Name() string { return fmt.Sprintf("lanepq-s%d-b%d", len(q.lanes), q.b) }

// Claim implements RelaxedQueue: the {Q₂} rung — OPQueue.
func (q *LanePQ) Claim() Claim {
	return Claim{
		Lattice: PQLattice,
		Levels:  PQLevels,
		Level:   LevelAnyOrder,
	}
}

// NewEnqueuer implements RelaxedQueue; see SegQueue.NewEnqueuer.
func (q *LanePQ) NewEnqueuer() Enqueuer { return newLaneEnqueuer(q.lanes, &q.nextLane, q.j) }

// NewDequeuer implements RelaxedQueue: single-goroutine handles with a
// private serve buffer; any number may be created. The sampling state
// is seeded from the creation index, so single-threaded schedules are
// deterministic.
func (q *LanePQ) NewDequeuer() Dequeuer {
	idx := uint64(q.nextCur.Add(1) - 1)
	return &LanePQDequeuer{q: q, rng: splitmix64(idx) | 1}
}

// LanePQDequeuer serves its claimed buffer best-first.
type LanePQDequeuer struct {
	q   *LanePQ
	rng uint64
	buf []int
}

// refill claims a run from the better-backlogged of two sampled
// shards, falling back to a full rotation when the sample comes up
// empty. As in SegDequeuer.Deq, a contended shard forces another
// rotation so a miss is never mistaken for emptiness.
func (d *LanePQDequeuer) refill() {
	n := uint64(len(d.q.lanes))
	d.rng = d.rng*6364136223846793005 + 1442695040888963407
	r := d.rng >> 33
	a := d.q.lanes[r%n]
	b := d.q.lanes[(r/n)%n]
	l := a
	if b.backlog() > a.backlog() {
		l = b
	}
	if d.buf, _ = l.claimRun(d.buf, uint64(d.q.b)); len(d.buf) > 0 {
		return
	}
	for retry := true; retry; {
		retry = false
		for i := uint64(0); i < n; i++ {
			var contended bool
			if d.buf, contended = d.q.lanes[i].claimRun(d.buf, uint64(d.q.b)); len(d.buf) > 0 {
				return
			}
			retry = retry || contended
		}
	}
}

// Deq serves the best element of the private buffer by linear scan —
// the buffer is at most b elements, so the scan beats any heap's sift
// at the sizes in play. An empty buffer refills first; ok=false means
// every shard came up empty.
func (d *LanePQDequeuer) Deq() (int, bool) {
	if len(d.buf) == 0 {
		d.refill()
		if len(d.buf) == 0 {
			return 0, false
		}
	}
	bi := 0
	for i := 1; i < len(d.buf); i++ {
		if d.buf[i] > d.buf[bi] {
			bi = i
		}
	}
	v := d.buf[bi]
	last := len(d.buf) - 1
	d.buf[bi] = d.buf[last]
	d.buf = d.buf[:last]
	if j := d.q.j; j != nil {
		j.Record(j.Tick(), history.DeqOk(v))
	}
	return v, true
}
