package txn

import (
	"strconv"

	"relaxlattice/internal/obs"
	"relaxlattice/internal/obs/trace"
)

// Observability for the transactional runtime. Logical time for every
// journal event is the schedule index — the serialization-relevant
// clock of this layer: event T = n means "after the n-th scheduled
// step". The Queue is a deterministic logical runtime (callers decide
// scheduling), so a fixed call sequence yields a byte-stable journal;
// ConcurrentQueue records under its own mutex, so its journal order is
// the actual serialization order the lock admitted.

// Observe attaches a metrics registry and event journal to the queue.
// Either may be nil (that side is simply off). Counters:
//
//	txn.enq, txn.deq            successful operations
//	txn.deq.blocked             Blocking-strategy head conflicts
//	txn.deq.skipped             Optimistic skips past held items
//	txn.deq.stutter             Pessimistic re-returns of held items
//	txn.deq.empty               dequeues finding nothing visible
//	txn.commit, txn.abort       transaction outcomes
//
// plus the gauge txn.concurrent_dequeuers.max (high-water C_k index).
// Journal events txn.commit / txn.abort / txn.deq.blocked carry the
// transaction and the schedule index at which serialization happened.
func (q *Queue) Observe(reg *obs.Registry, rec *obs.Recorder) {
	q.reg = reg
	q.rec = rec
}

// TraceSpans attaches a causal-span tracer: one root span per
// transaction, opened at Begin and closed at Commit/Abort with an
// "outcome" attribute, with one instant child per operation. Give the
// tracer a clock over the schedule index (obs.ClockFunc reading
// len(Schedule)) to put transaction spans on the serialization-
// relevant time axis of this layer. Attach before any transaction
// begins; nil detaches (open transactions keep their spans).
func (q *Queue) TraceSpans(tr *trace.Tracer) {
	q.spans = tr
	if tr != nil && q.txnSpans == nil {
		q.txnSpans = map[ID]*trace.SpanRef{}
	}
}

// opSpan records one instant operation span under t's transaction
// span (no-op when spans are off or t began before attachment).
func (q *Queue) opSpan(t ID, name string, attrs ...obs.KV) {
	if q.spans == nil {
		return
	}
	c := q.txnSpans[t].Child(name, attrs...)
	c.End()
}

// endTxnSpan closes t's transaction span with the given outcome.
func (q *Queue) endTxnSpan(t ID, outcome string) {
	if q.spans == nil {
		return
	}
	if sp := q.txnSpans[t]; sp != nil {
		sp.End(obs.KV{K: "outcome", V: outcome})
		delete(q.txnSpans, t)
	}
}

// count bumps a queue counter (no-op when unobserved).
func (q *Queue) count(name string) {
	q.reg.Counter(name).Add(1)
}

// event records a journal event at the current schedule index.
func (q *Queue) event(name string, attrs ...obs.KV) {
	if q.rec == nil {
		return
	}
	q.rec.Record(int64(len(q.schedule)), name, attrs...)
}

func txnAttr(t ID) obs.KV {
	return obs.KV{K: "txn", V: "T" + strconv.Itoa(int(t))}
}

// Observe attaches observation to the wrapped queue.
func (cq *ConcurrentQueue) Observe(reg *obs.Registry, rec *obs.Recorder) {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	cq.q.Observe(reg, rec)
}
