package txn

import (
	"errors"
	"fmt"

	"relaxlattice/internal/history"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/obs/trace"
	"relaxlattice/internal/value"
)

// Strategy selects how a dequeuer reacts when the item at the head of
// the queue has been tentatively dequeued by a concurrent transaction
// (Section 4.2).
type Strategy int

const (
	// Blocking delays the dequeuer until the conflicting transaction
	// commits or aborts — the strict FIFO discipline.
	Blocking Strategy = iota + 1
	// Optimistic assumes the earlier dequeuer will commit: skip the item
	// and return the next undequeued one. Under at most k concurrent
	// dequeuers the queue behaves as Atomic(Semiqueue_k): items may be
	// printed out of order, but each file is printed only once.
	Optimistic
	// Pessimistic assumes the earlier dequeuer will abort: return the
	// same item again. The queue behaves as Atomic(Stuttering_j): files
	// may be printed multiple times, but always in order.
	Pessimistic
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Blocking:
		return "blocking"
	case Optimistic:
		return "optimistic"
	case Pessimistic:
		return "pessimistic"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Runtime errors.
var (
	// ErrBlocked is returned by Deq under the Blocking strategy when a
	// concurrent transaction holds the head of the queue.
	ErrBlocked = errors.New("txn: blocked on concurrent dequeuer")
	// ErrEmpty is returned when no committed item is visible to the
	// caller.
	ErrEmpty = errors.New("txn: queue empty")
	// ErrFinished is returned for operations by committed or aborted
	// transactions.
	ErrFinished = errors.New("txn: transaction already finished")
	// ErrOneDeq is returned when a transaction attempts a second Deq
	// under the Optimistic or Pessimistic strategy. The paper's lattice
	// position (Semiqueue_k / Stuttering_j with k the number of
	// concurrent dequeuers) relies on the print-spooler discipline of
	// Section 4.2 — each dequeuing transaction holds at most one item —
	// and the relaxed strategies are not serializable without it.
	ErrOneDeq = errors.New("txn: relaxed strategies dequeue at most once per transaction")
)

type entry struct {
	elem     value.Elem
	deqBy    []ID // active transactions that tentatively dequeued this entry
	consumed bool // a dequeuer committed; entry is logically gone
}

func (e *entry) tentativelyDequeued() bool { return len(e.deqBy) > 0 }

func (e *entry) dequeuedBy(t ID) bool {
	for _, d := range e.deqBy {
		if d == t {
			return true
		}
	}
	return false
}

// Queue is a shared transactional queue executing the concurrent
// print-spooler scenario of Section 4.2: client transactions enqueue,
// printer transactions dequeue and commit, and the configured Strategy
// decides what happens when dequeuers collide. The runtime records the
// schedule it executes so that it can be verified against
// Atomic(Semiqueue_k) / Atomic(Stuttering_j).
//
// Two visibility rules keep every schedule hybrid atomic (serializable
// in commit order):
//   - an enqueued item becomes visible — even to its own transaction —
//     only when the enqueuer commits, and
//   - committed items are ordered by their enqueuers' commit times (a
//     transaction's own enqueues keep their internal order).
//
// Queue is a deterministic logical runtime: operations never block,
// they return ErrBlocked and the caller decides how to wait.
type Queue struct {
	strategy  Strategy
	committed []*entry        // commit-ordered
	pending   map[ID][]*entry // tentative enqueues per active transaction
	status    map[ID]Status
	schedule  Schedule
	nextID    ID
	// concurrentDeqHigh tracks the high-water mark of simultaneously
	// active dequeuing transactions — the C_k position in the lattice of
	// constraints (Section 4.2). deqActive is the incremental form of
	// "active transactions with at least one Deq executed": membership
	// changes only at a transaction's first Deq and at its commit/abort,
	// so the high-water mark costs O(1) per operation instead of a full
	// schedule scan.
	concurrentDeqHigh int
	deqActive         map[ID]bool
	reg               *obs.Registry // optional; nil-safe (see Observe)
	rec               *obs.Recorder // optional; nil-safe
	// spans, when set, receives one causal span per transaction
	// (Begin → Commit/Abort) with an instant child per operation; see
	// TraceSpans. txnSpans holds the open root span of each active
	// transaction.
	spans    *trace.Tracer
	txnSpans map[ID]*trace.SpanRef
	// audit, when set, receives the committed serialized history (the
	// order HybridAtomic serializes in): at each commit, the committing
	// transaction's operations in execution order.
	audit Audit
	// txnOps buffers each active transaction's operations for the
	// audit; maintained only while audit != nil.
	txnOps map[ID]history.History
}

// Audit observes the queue's committed serialized history: at each
// Commit(t), t's operations in execution order — exactly the extension
// of the history that HybridAtomic checks against the spool lattice
// (committed transactions serialize in commit order). An online
// relaxation checker implements this to certify, live, that the queue
// stays at its claimed Semiqueue_k / Stuttering_j level.
//
// ObserveOp is called synchronously from Commit at deterministic
// points of the logical runtime; implementations must not call back
// into the Queue.
type Audit interface {
	ObserveOp(op history.Op)
}

// AttachAudit attaches an online audit to the committed serialized
// history. It must be called before any transaction begins (the audit
// would otherwise miss buffered operations); attaching nil detaches.
func (q *Queue) AttachAudit(a Audit) {
	q.audit = a
	if a != nil && q.txnOps == nil {
		q.txnOps = map[ID]history.History{}
	}
}

// NewQueue builds an empty queue with the given strategy.
func NewQueue(strategy Strategy) *Queue {
	switch strategy {
	case Blocking, Optimistic, Pessimistic:
	default:
		panic(fmt.Sprintf("txn: unknown strategy %d", int(strategy)))
	}
	return &Queue{
		strategy:  strategy,
		pending:   map[ID][]*entry{},
		status:    map[ID]Status{},
		deqActive: map[ID]bool{},
	}
}

// Begin starts a transaction.
func (q *Queue) Begin() ID {
	q.nextID++
	q.status[q.nextID] = StatusActive
	if q.spans != nil {
		q.txnSpans[q.nextID] = q.spans.Begin("txn", txnAttr(q.nextID),
			obs.KV{K: "strategy", V: q.strategy.String()})
	}
	return q.nextID
}

func (q *Queue) checkActive(t ID) error {
	if q.status[t] != StatusActive {
		return fmt.Errorf("%w: T%d", ErrFinished, int(t))
	}
	return nil
}

// Enq appends an item on behalf of t. The item becomes visible when t
// commits, positioned after every item committed earlier.
func (q *Queue) Enq(t ID, e value.Elem) error {
	if err := q.checkActive(t); err != nil {
		return err
	}
	q.pending[t] = append(q.pending[t], &entry{elem: e})
	op := history.Enq(int(e))
	q.schedule = append(q.schedule, Step(t, op))
	q.opSpan(t, "txn.enq", obs.KV{K: "item", V: fmt.Sprint(e)})
	q.buffer(t, op)
	q.bumpConcurrency()
	q.count("txn.enq")
	return nil
}

// Deq dequeues on behalf of t per the strategy. It returns the element,
// or ErrEmpty / ErrBlocked / ErrOneDeq.
func (q *Queue) Deq(t ID) (value.Elem, error) {
	if err := q.checkActive(t); err != nil {
		return 0, err
	}
	if q.strategy != Blocking && q.holdsItem(t) {
		return 0, fmt.Errorf("%w: T%d", ErrOneDeq, int(t))
	}
	for _, en := range q.committed {
		if en.consumed {
			continue
		}
		if en.dequeuedBy(t) {
			continue // t already holds this item; move on
		}
		if en.tentativelyDequeued() {
			switch q.strategy {
			case Blocking:
				q.count("txn.deq.blocked")
				q.event("txn.deq.blocked", txnAttr(t),
					obs.KV{K: "item", V: fmt.Sprint(en.elem)},
					obs.KV{K: "holder", V: "T" + fmt.Sprint(int(en.deqBy[0]))})
				return 0, fmt.Errorf("%w: item %v held by T%v", ErrBlocked, en.elem, en.deqBy[0])
			case Optimistic:
				q.count("txn.deq.skipped")
				continue // assume the holder commits; skip
			case Pessimistic:
				// Assume the holder aborts; return the same item.
				q.count("txn.deq.stutter")
			}
		}
		en.deqBy = append(en.deqBy, t)
		op := history.DeqOk(int(en.elem))
		q.schedule = append(q.schedule, Step(t, op))
		q.opSpan(t, "txn.deq", obs.KV{K: "item", V: fmt.Sprint(en.elem)})
		q.buffer(t, op)
		q.deqActive[t] = true
		q.bumpConcurrency()
		q.count("txn.deq")
		return en.elem, nil
	}
	q.count("txn.deq.empty")
	return 0, ErrEmpty
}

// Commit makes t's effects permanent: its enqueues join the committed
// queue (in commit order) and the items it dequeued are consumed.
func (q *Queue) Commit(t ID) error {
	if err := q.checkActive(t); err != nil {
		return err
	}
	for _, en := range q.committed {
		if en.dequeuedBy(t) {
			en.consumed = true
			en.deqBy = removeID(en.deqBy, t)
		}
	}
	q.committed = append(q.committed, q.pending[t]...)
	delete(q.pending, t)
	q.compact()
	q.status[t] = StatusCommitted
	delete(q.deqActive, t)
	q.schedule = append(q.schedule, Commit(t))
	q.endTxnSpan(t, "commit")
	q.count("txn.commit")
	q.event("txn.commit", txnAttr(t))
	if q.audit != nil {
		// Commit order is serialization order (hybrid atomicity), so
		// the committed serialized history extends by exactly t's ops.
		for _, op := range q.txnOps[t] {
			q.audit.ObserveOp(op)
		}
		delete(q.txnOps, t)
	}
	return nil
}

// AbortTxn discards t's effects: its enqueues vanish and its tentative
// dequeues are released.
func (q *Queue) AbortTxn(t ID) error {
	if err := q.checkActive(t); err != nil {
		return err
	}
	delete(q.pending, t)
	for _, en := range q.committed {
		en.deqBy = removeID(en.deqBy, t)
	}
	q.status[t] = StatusAborted
	delete(q.deqActive, t)
	delete(q.txnOps, t)
	q.schedule = append(q.schedule, Abort(t))
	q.endTxnSpan(t, "abort")
	q.count("txn.abort")
	q.event("txn.abort", txnAttr(t))
	return nil
}

// holdsItem reports whether t has a tentative dequeue outstanding.
func (q *Queue) holdsItem(t ID) bool {
	for _, en := range q.committed {
		if en.dequeuedBy(t) {
			return true
		}
	}
	return false
}

func removeID(ids []ID, t ID) []ID {
	var out []ID
	for _, x := range ids {
		if x != t {
			out = append(out, x)
		}
	}
	return out
}

// compact drops consumed entries no longer referenced by any active
// dequeuer.
func (q *Queue) compact() {
	var kept []*entry
	for _, en := range q.committed {
		if en.consumed && len(en.deqBy) == 0 {
			continue
		}
		kept = append(kept, en)
	}
	q.committed = kept
}

func (q *Queue) bumpConcurrency() {
	if n := len(q.deqActive); n > q.concurrentDeqHigh {
		q.concurrentDeqHigh = n
	}
	q.reg.Gauge("txn.concurrent_dequeuers.max").Max(int64(q.concurrentDeqHigh))
}

// buffer records one of t's operations for the audit.
func (q *Queue) buffer(t ID, op history.Op) {
	if q.audit != nil {
		q.txnOps[t] = append(q.txnOps[t], op)
	}
}

// MaxConcurrentDequeuers returns the high-water mark of simultaneously
// active dequeuing transactions — the index k of the weakest constraint
// C_k that held throughout the execution (Section 4.2: "no more than k
// active transactions have executed Deq operations").
func (q *Queue) MaxConcurrentDequeuers() int { return q.concurrentDeqHigh }

// ScheduleLen returns the number of scheduled steps so far — the
// logical time axis of this layer's journal and span events.
func (q *Queue) ScheduleLen() int { return len(q.schedule) }

// Schedule returns the schedule executed so far. The copy keeps
// q.schedule unaliased, which is what lets the runtime extend it in
// place (appending a copy per step would cost O(n²) over a run).
func (q *Queue) Schedule() Schedule { return q.schedule.Append() }
