package txn

import (
	"errors"
	"testing"

	"relaxlattice/internal/specs"
	"relaxlattice/internal/value"
)

// seed enqueues items 1..n, each in its own committed transaction.
func seed(t *testing.T, q *Queue, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		tx := q.Begin()
		if err := q.Enq(tx, value.Elem(i)); err != nil {
			t.Fatalf("Enq: %v", err)
		}
		if err := q.Commit(tx); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
}

func TestQueueSerialIsFIFO(t *testing.T) {
	for _, strategy := range []Strategy{Blocking, Optimistic, Pessimistic} {
		q := NewQueue(strategy)
		seed(t, q, 3)
		var got []value.Elem
		for i := 0; i < 3; i++ {
			tx := q.Begin()
			e, err := q.Deq(tx)
			if err != nil {
				t.Fatalf("%v Deq: %v", strategy, err)
			}
			got = append(got, e)
			if err := q.Commit(tx); err != nil {
				t.Fatalf("Commit: %v", err)
			}
		}
		for i, e := range got {
			if int(e) != i+1 {
				t.Errorf("%v: serial dequeue order %v", strategy, got)
			}
		}
		// Serial execution stays at the top of the lattice: the schedule
		// is hybrid atomic for the FIFO queue.
		if !HybridAtomic(q.Schedule(), specs.FIFOQueue()) {
			t.Errorf("%v: serial schedule not FIFO-atomic", strategy)
		}
		if q.MaxConcurrentDequeuers() != 1 {
			t.Errorf("%v: max concurrent dequeuers = %d", strategy, q.MaxConcurrentDequeuers())
		}
	}
}

func TestBlockingStrategyBlocks(t *testing.T) {
	q := NewQueue(Blocking)
	seed(t, q, 2)
	t1, t2 := q.Begin(), q.Begin()
	if _, err := q.Deq(t1); err != nil {
		t.Fatalf("Deq: %v", err)
	}
	_, err := q.Deq(t2)
	if !errors.Is(err, ErrBlocked) {
		t.Fatalf("expected ErrBlocked, got %v", err)
	}
	// After t1 commits, t2 proceeds to item 2.
	if err := q.Commit(t1); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	e, err := q.Deq(t2)
	if err != nil || e != 2 {
		t.Fatalf("Deq after unblock = %v, %v", e, err)
	}
}

func TestOptimisticSkipsHeldItems(t *testing.T) {
	q := NewQueue(Optimistic)
	seed(t, q, 3)
	t1, t2 := q.Begin(), q.Begin()
	e1, err := q.Deq(t1)
	if err != nil || e1 != 1 {
		t.Fatalf("t1 Deq = %v, %v", e1, err)
	}
	e2, err := q.Deq(t2)
	if err != nil || e2 != 2 {
		t.Fatalf("t2 Deq = %v, %v (should skip held 1)", e2, err)
	}
	if err := q.Commit(t2); err != nil { // out-of-order commit
		t.Fatalf("Commit: %v", err)
	}
	if err := q.Commit(t1); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Each item printed once, out of order: Semiqueue_2 atomic in
	// commit order, not FIFO.
	s := q.Schedule()
	if !HybridAtomic(s, specs.Semiqueue(2)) {
		t.Errorf("optimistic schedule not Semiqueue_2 hybrid atomic: %v", s)
	}
	if HybridAtomic(s, specs.FIFOQueue()) {
		t.Errorf("optimistic collision should not be FIFO: %v", s)
	}
	if q.MaxConcurrentDequeuers() != 2 {
		t.Errorf("max concurrent dequeuers = %d", q.MaxConcurrentDequeuers())
	}
}

func TestOptimisticAbortRestoresItem(t *testing.T) {
	q := NewQueue(Optimistic)
	seed(t, q, 2)
	t1 := q.Begin()
	if e, _ := q.Deq(t1); e != 1 {
		t.Fatalf("t1 took %v", e)
	}
	if err := q.AbortTxn(t1); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	// Item 1 is available again.
	t2 := q.Begin()
	e, err := q.Deq(t2)
	if err != nil || e != 1 {
		t.Fatalf("after abort Deq = %v, %v", e, err)
	}
	if err := q.Commit(t2); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if !HybridAtomic(q.Schedule(), specs.FIFOQueue()) {
		t.Errorf("abort-then-redeq should be FIFO: %v", q.Schedule())
	}
}

func TestPessimisticStutters(t *testing.T) {
	q := NewQueue(Pessimistic)
	seed(t, q, 2)
	t1, t2 := q.Begin(), q.Begin()
	e1, _ := q.Deq(t1)
	e2, _ := q.Deq(t2)
	if e1 != 1 || e2 != 1 {
		t.Fatalf("both should take item 1: %v %v", e1, e2)
	}
	if err := q.Commit(t1); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := q.Commit(t2); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	s := q.Schedule()
	// Item printed twice, in order: Stuttering_2 atomic, not FIFO.
	if !HybridAtomic(s, specs.StutteringQueue(2)) {
		t.Errorf("pessimistic schedule not Stuttering_2 hybrid atomic: %v", s)
	}
	if HybridAtomic(s, specs.FIFOQueue()) {
		t.Errorf("stutter should not be FIFO: %v", s)
	}
}

func TestPessimisticAbortJustifiesOptimism(t *testing.T) {
	q := NewQueue(Pessimistic)
	seed(t, q, 2)
	t1, t2 := q.Begin(), q.Begin()
	_, _ = q.Deq(t1)
	_, _ = q.Deq(t2)
	// t1 aborts: t2's "pessimistic" assumption was right; no stutter in
	// the committed behavior.
	if err := q.AbortTxn(t1); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if err := q.Commit(t2); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if !HybridAtomic(q.Schedule(), specs.FIFOQueue()) {
		t.Errorf("with t1 aborted the schedule is FIFO: %v", q.Schedule())
	}
}

func TestTentativeEnqueueVisibility(t *testing.T) {
	q := NewQueue(Optimistic)
	t1 := q.Begin()
	if err := q.Enq(t1, 5); err != nil {
		t.Fatalf("Enq: %v", err)
	}
	// No transaction — not even the enqueuer — sees a tentative
	// enqueue: an item joins the queue (in commit order) only when its
	// enqueuer commits. Dequeuing one's own uncommitted item is
	// unserializable against concurrent enqueuers.
	t2 := q.Begin()
	if _, err := q.Deq(t2); !errors.Is(err, ErrEmpty) {
		t.Fatalf("expected ErrEmpty, got %v", err)
	}
	if _, err := q.Deq(t1); !errors.Is(err, ErrEmpty) {
		t.Fatalf("own tentative item visible: %v", err)
	}
	if err := q.Commit(t1); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Now a fresh transaction consumes it.
	t3 := q.Begin()
	e, err := q.Deq(t3)
	if err != nil || e != 5 {
		t.Fatalf("post-commit Deq = %v, %v", e, err)
	}
	if err := q.Commit(t3); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if !HybridAtomic(q.Schedule(), specs.FIFOQueue()) {
		t.Errorf("enq-commit-deq should be FIFO")
	}
	// Items visible after commit when unconsumed.
	q2 := NewQueue(Optimistic)
	seed(t, q2, 2)
	items := q2.Items()
	if len(items) != 2 || items[0] != 1 {
		t.Errorf("Items = %v", items)
	}
}

// Committed items are ordered by enqueuer commit time, not enqueue
// time — the rule that keeps schedules hybrid atomic.
func TestCommitOrderDeterminesQueueOrder(t *testing.T) {
	q := NewQueue(Blocking)
	t1, t2 := q.Begin(), q.Begin()
	if err := q.Enq(t1, 1); err != nil {
		t.Fatal(err)
	}
	if err := q.Enq(t2, 2); err != nil {
		t.Fatal(err)
	}
	// T2 commits first: its item is first in the queue.
	if err := q.Commit(t2); err != nil {
		t.Fatal(err)
	}
	if err := q.Commit(t1); err != nil {
		t.Fatal(err)
	}
	items := q.Items()
	if len(items) != 2 || items[0] != 2 || items[1] != 1 {
		t.Fatalf("Items = %v, want [2 1]", items)
	}
	t3 := q.Begin()
	e, err := q.Deq(t3)
	if err != nil || e != 2 {
		t.Fatalf("Deq = %v, %v", e, err)
	}
	_ = q.Commit(t3)
	if !HybridAtomic(q.Schedule(), specs.FIFOQueue()) {
		t.Errorf("commit-ordered schedule should be FIFO-hybrid-atomic")
	}
}

// The relaxed strategies enforce the single-Deq print-spooler
// discipline.
func TestRelaxedStrategiesSingleDeq(t *testing.T) {
	for _, strategy := range []Strategy{Optimistic, Pessimistic} {
		q := NewQueue(strategy)
		seed(t, q, 3)
		tx := q.Begin()
		if _, err := q.Deq(tx); err != nil {
			t.Fatalf("%v first Deq: %v", strategy, err)
		}
		if _, err := q.Deq(tx); !errors.Is(err, ErrOneDeq) {
			t.Errorf("%v second Deq: %v, want ErrOneDeq", strategy, err)
		}
		// After commit, a new transaction dequeues the next item.
		_ = q.Commit(tx)
		tx2 := q.Begin()
		if e, err := q.Deq(tx2); err != nil || e != 2 {
			t.Errorf("%v next txn Deq = %v, %v", strategy, e, err)
		}
	}
	// Blocking transactions may dequeue repeatedly (they serialize).
	q := NewQueue(Blocking)
	seed(t, q, 2)
	tx := q.Begin()
	if _, err := q.Deq(tx); err != nil {
		t.Fatal(err)
	}
	if e, err := q.Deq(tx); err != nil || e != 2 {
		t.Errorf("blocking second Deq = %v, %v", e, err)
	}
}

func TestAbortDiscardsEnqueues(t *testing.T) {
	q := NewQueue(Blocking)
	t1 := q.Begin()
	_ = q.Enq(t1, 9)
	_ = q.AbortTxn(t1)
	t2 := q.Begin()
	if _, err := q.Deq(t2); !errors.Is(err, ErrEmpty) {
		t.Errorf("aborted enqueue visible: %v", err)
	}
}

func TestFinishedTransactionsRejected(t *testing.T) {
	q := NewQueue(Blocking)
	t1 := q.Begin()
	_ = q.Commit(t1)
	if err := q.Enq(t1, 1); !errors.Is(err, ErrFinished) {
		t.Errorf("Enq after commit: %v", err)
	}
	if _, err := q.Deq(t1); !errors.Is(err, ErrFinished) {
		t.Errorf("Deq after commit: %v", err)
	}
	if err := q.Commit(t1); !errors.Is(err, ErrFinished) {
		t.Errorf("double Commit: %v", err)
	}
	if err := q.AbortTxn(t1); !errors.Is(err, ErrFinished) {
		t.Errorf("Abort after commit: %v", err)
	}
}

func TestStrategyStringAndPanic(t *testing.T) {
	if Blocking.String() != "blocking" || Optimistic.String() != "optimistic" || Pessimistic.String() != "pessimistic" {
		t.Errorf("strategy names wrong")
	}
	if Strategy(99).String() == "" {
		t.Errorf("unknown strategy String empty")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	NewQueue(Strategy(0))
}

// The paper's headline claim for Section 4.2, verified mechanically:
// under at most k concurrent dequeuers the optimistic queue is
// Atomic(Semiqueue_k) and the pessimistic queue Atomic(Stuttering_j) —
// and in both cases the schedule stays online hybrid atomic at every
// prefix, for the k the runtime itself reports.
func TestStrategiesMatchLatticePrediction(t *testing.T) {
	run := func(strategy Strategy, dequeuers int) (*Queue, Schedule) {
		q := NewQueue(strategy)
		seed(t, q, dequeuers+1)
		txs := make([]ID, dequeuers)
		for i := range txs {
			txs[i] = q.Begin()
			if _, err := q.Deq(txs[i]); err != nil {
				t.Fatalf("%v Deq: %v", strategy, err)
			}
		}
		// Commit in reverse dequeue order so the hybrid (commit-order)
		// serialization exposes the full collision window: the last
		// dequeuer's item commits first.
		for i := len(txs) - 1; i >= 0; i-- {
			if err := q.Commit(txs[i]); err != nil {
				t.Fatalf("Commit: %v", err)
			}
		}
		return q, q.Schedule()
	}
	for k := 1; k <= 3; k++ {
		q, s := run(Optimistic, k)
		if got := q.MaxConcurrentDequeuers(); got != k {
			t.Fatalf("optimistic k = %d, want %d", got, k)
		}
		if !HybridAtomic(s, specs.Semiqueue(k)) {
			t.Errorf("optimistic k=%d not Atomic(Semiqueue_%d): %v", k, k, s)
		}
		if k > 1 && HybridAtomic(s, specs.Semiqueue(k-1)) {
			// The collision uses the full window, so k is tight here.
			t.Errorf("optimistic k=%d unexpectedly Semiqueue_%d", k, k-1)
		}
		q, s = run(Pessimistic, k)
		if got := q.MaxConcurrentDequeuers(); got != k {
			t.Fatalf("pessimistic k = %d, want %d", got, k)
		}
		if !HybridAtomic(s, specs.StutteringQueue(k)) {
			t.Errorf("pessimistic j=%d not Atomic(Stuttering_%d): %v", k, k, s)
		}
		if k > 1 && HybridAtomic(s, specs.StutteringQueue(k-1)) {
			t.Errorf("pessimistic j=%d unexpectedly Stuttering_%d", k, k-1)
		}
	}
}

// Items returns the committed, unconsumed elements in queue order.
func (q *Queue) Items() []value.Elem {
	var out []value.Elem
	for _, en := range q.committed {
		if !en.consumed {
			out = append(out, en.elem)
		}
	}
	return out
}
