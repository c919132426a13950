package main

import (
	"fmt"
	"sync/atomic"

	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
)

// laneMinCap is the smallest lane ring capacity. Rings grow (double)
// when a producer outruns its consumers, so this is a starting size,
// not a limit: big enough that steady balanced workloads never grow,
// small enough that idle lanes cost nothing.
const laneMinCap = 256

// ring is one capacity generation of a lane's slot array. A ring's
// slots are written only while it is the lane's current ring; after a
// growth swaps in a successor, the old ring is immutable, so claimers
// holding a stale pointer still read correct values.
type ring struct {
	slots []atomic.Uint64
	mask  uint64
}

// lane is a growable single-writer ring shared by the lane-structured
// queues: the owning producer publishes elements with plain stores and
// one release store of pub — no read-modify-write on the enqueue path,
// which is what lets a producer run at cache speed — and consumers
// claim runs of elements with a single CAS on claim. A full ring is
// doubled rather than waited on: a producer never blocks on consumer
// progress, which rules out the end-game deadlock where the last live
// goroutine waits on a dequeuer that can no longer run.
//
// Slot-reuse discipline: a producer only rewrites a slot whose previous
// occupant's index is below claim, and claimRun copies values out
// *before* its CAS — so a successful claim proves claim sat at c for
// the whole copy, during which no slot in [c, c+cap) can be rewritten.
// Slots hold element+1 so a zero read means "not yet published"; pub
// is only advanced after the slot store, so any index below pub reads
// non-zero.
type lane struct {
	r     atomic.Pointer[ring]
	pub   atomic.Uint64
	_     [4]uint64 // keep the hot counters off one line
	claim atomic.Uint64
	_     [7]uint64
}

func newLane(capacity int) *lane {
	c := uint64(laneMinCap)
	for int(c) < capacity {
		c <<= 1
	}
	l := &lane{}
	l.r.Store(&ring{slots: make([]atomic.Uint64, c), mask: c - 1})
	return l
}

// cap returns the current ring capacity. It only ever grows, so the
// value observed after a run bounds the lane's backlog at every point
// during it.
func (l *lane) cap() int { return len(l.r.Load().slots) }

// backlog returns the published-but-unclaimed element count.
func (l *lane) backlog() uint64 { return l.pub.Load() - l.claim.Load() }

// store writes element n's slot without publishing it, growing the
// ring when full. Only the lane's owner may call it.
func (l *lane) store(e int, n uint64) {
	r := l.r.Load()
	if n-l.claim.Load() >= uint64(len(r.slots)) {
		r = l.grow(r, n)
	}
	r.slots[n&r.mask].Store(uint64(e) + 1)
}

// publish releases every stored element below n to claimers.
func (l *lane) publish(n uint64) { l.pub.Store(n) }

// push appends e: store then publish. Returns the next index.
func (l *lane) push(e int, n uint64) uint64 {
	l.store(e, n)
	l.publish(n + 1)
	return n + 1
}

// grow doubles the ring, copying the live window [claim, n) into the
// successor before swapping it in. The copy may include entries a
// concurrent claimer is simultaneously taking from the old ring —
// harmless, both rings hold identical values for them. The pointer
// store precedes the next publish, so a claimer that observes a
// published index always observes a ring containing it.
func (l *lane) grow(old *ring, n uint64) *ring {
	c := uint64(2 * len(old.slots))
	next := &ring{slots: make([]atomic.Uint64, c), mask: c - 1}
	for i := l.claim.Load(); i < n; i++ {
		next.slots[i&next.mask].Store(old.slots[i&old.mask].Load())
	}
	l.r.Store(next)
	return next
}

// claimRun CAS-claims up to max published elements and appends them to
// buf. Values are copied out before the CAS: a successful CAS proves
// claim held at c throughout the copy, so no copied slot can have been
// rewritten (see lane); a failed CAS discards the copy. It retries a
// lost race twice before giving up; contended reports whether it
// walked away from a lane that had elements (the race's winner made
// progress). Callers must distinguish that from a truly empty lane:
// treating a contended miss as emptiness lets a producer/consumer pair
// drift enqueue-heavy and miscount the structure as drained.
func (l *lane) claimRun(buf []int, max uint64) ([]int, bool) {
	for try := 0; try < 2; try++ {
		c := l.claim.Load()
		p := l.pub.Load()
		if c >= p {
			return buf, false
		}
		r := l.r.Load() // after pub: the ring holds every index below p
		want := c + max
		if want > p {
			want = p
		}
		base := len(buf)
		for i := c; i < want; i++ {
			buf = append(buf, int(r.slots[i&r.mask].Load()-1))
		}
		if l.claim.CompareAndSwap(c, want) {
			return buf, false
		}
		buf = buf[:base]
	}
	return buf, true
}

// laneEnqueuer is the single-writer producer handle of a
// lane-structured queue: it owns one lane.
type laneEnqueuer struct {
	l *lane
	j *Journal
	n uint64
}

// newLaneEnqueuer hands out the next unowned lane. Lanes are
// single-writer, so asking for more producers than lanes panics.
func newLaneEnqueuer(lanes []*lane, next *atomic.Uint32, j *Journal) *laneEnqueuer {
	i := int(next.Add(1) - 1)
	if i >= len(lanes) {
		panic(fmt.Sprintf("relaxedqueues: enqueuer %d of a %d-lane structure", i+1, len(lanes)))
	}
	return &laneEnqueuer{l: lanes[i], j: j}
}

// Enq appends to the handle's lane. When recording, the ticket is
// taken between the slot store and the pub store, so a dequeue of this
// element (which observes pub) always ticks later.
func (h *laneEnqueuer) Enq(e int) {
	if h.j == nil {
		h.n = h.l.push(e, h.n)
		return
	}
	h.l.store(e, h.n)
	t := h.j.Tick()
	h.l.publish(h.n + 1)
	h.n++
	h.j.Record(t, history.Enq(e))
}

// SegQueue is the k-segment out-of-order FIFO queue, lane-structured
// for raw speed: each producer owns a lane (a bounded ring of two
// k-slot segments, at least laneMinCap slots), so the enqueue path is
// two plain stores and one release store — no shared read-modify-write
// at all, which on one core is the entire game (a fetch-add costs more
// than the rest of the operation combined). Dequeuers rotate over the
// lanes and CAS-claim runs of up to k elements at a time, amortizing
// the one unavoidable read-modify-write over the run; claimed runs are
// served in lane order from a private buffer.
//
// The relaxation: lane order is arrival order, but cross-lane
// interleaving is whatever the claim schedule makes of it, and a
// claimed run is served while younger claims proceed. Every source of
// reordering is bounded — a lane's backlog never exceeds its ring
// capacity (rings grow before overflowing, and capacity only grows,
// so the final capacity bounds the whole run), a dequeuer's buffer at
// most k — so a dequeue always serves within the first
// Σ lane-caps + w·k + w pending elements (w in-flight recorder
// skew; see Journal). That is the Semiqueue window the structure
// claims: constraint X holds exactly (claims are exclusive CAS
// tickets; nothing is served twice), constraint R is traded.
type SegQueue struct {
	k        int
	lanes    []*lane
	j        *Journal
	nextLane atomic.Uint32
	nextCur  atomic.Uint32
}

// NewSegQueue returns an empty k-segment queue with the given lane
// count, recording into j (nil for unrecorded runs). Create one
// Enqueuer per producing goroutine, at most one per lane. It panics if
// k < 1 or lanes < 1.
func NewSegQueue(k, lanes int, j *Journal) *SegQueue {
	if k < 1 || lanes < 1 {
		panic(fmt.Sprintf("relaxedqueues: NewSegQueue(k=%d, lanes=%d), need k ≥ 1, lanes ≥ 1", k, lanes))
	}
	q := &SegQueue{k: k, j: j, lanes: make([]*lane, lanes)}
	for i := range q.lanes {
		q.lanes[i] = newLane(2 * k)
	}
	return q
}

// Name implements RelaxedQueue.
func (q *SegQueue) Name() string { return fmt.Sprintf("seg-k%d", q.k) }

// window is the reordering bound for w concurrent dequeuers: every
// element older than a served one is either unclaimed in some lane
// (≤ that lane's capacity, which only grows — so the value read here,
// after a run, bounds every point of it), or claimed into some
// dequeuer's buffer (≤ k per dequeuer).
func (q *SegQueue) window(w int) int {
	total := 0
	for _, l := range q.lanes {
		total += l.cap()
	}
	return total + w*q.k
}

// Claim implements RelaxedQueue: the {X} rung — Semiqueue(window+w).
func (q *SegQueue) Claim() Claim {
	return Claim{
		Lattice: func(w int) *lattice.Relaxation { return QueueLattice(q.window(w), w) },
		Levels:  QueueLevels,
		Level:   LevelExclusive,
	}
}

// NewEnqueuer implements RelaxedQueue: the returned handle owns one
// lane and must be used from one goroutine at a time. It panics once
// every lane is owned.
func (q *SegQueue) NewEnqueuer() Enqueuer { return newLaneEnqueuer(q.lanes, &q.nextLane, q.j) }

// NewDequeuer implements RelaxedQueue: dequeuer handles are
// single-goroutine cursors with a private serve buffer; any number may
// be created. Cursors start on distinct lanes so single-threaded
// schedules are a deterministic function of creation order.
func (q *SegQueue) NewDequeuer() Dequeuer {
	return &SegDequeuer{q: q, cur: int(q.nextCur.Add(1)-1) % len(q.lanes)}
}

// SegDequeuer serves claimed runs in lane order from a private buffer.
type SegDequeuer struct {
	q   *SegQueue
	cur int
	buf []int
	pos int
}

// Deq serves the buffered run, refilling by rotating over the lanes
// and claiming up to k elements from the first with a published
// backlog. It reports ok=false only after a rotation that saw every
// lane empty and uncontended — a contended lane means another claimer
// is mid-progress, so the rotation retries rather than miscounting
// the structure as drained (lock-free: retries only happen when some
// other claimer succeeded).
func (d *SegDequeuer) Deq() (int, bool) {
	if d.pos >= len(d.buf) {
		d.buf, d.pos = d.buf[:0], 0
		n := len(d.q.lanes)
		for retry := true; retry && len(d.buf) == 0; {
			retry = false
			for i := 0; i < n; i++ {
				l := d.q.lanes[d.cur]
				d.cur++
				if d.cur == n {
					d.cur = 0
				}
				var contended bool
				if d.buf, contended = l.claimRun(d.buf, uint64(d.q.k)); len(d.buf) > 0 {
					break
				}
				retry = retry || contended
			}
		}
		if len(d.buf) == 0 {
			return 0, false
		}
	}
	v := d.buf[d.pos]
	d.pos++
	if j := d.q.j; j != nil {
		j.Record(j.Tick(), history.DeqOk(v))
	}
	return v, true
}
