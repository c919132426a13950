package txn

import (
	"strings"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/specs"
)

func TestScheduleBasics(t *testing.T) {
	s := Schedule{
		Step(1, history.Enq(1)),
		Step(2, history.Enq(2)),
		Commit(1),
		Step(2, history.DeqOk(1)),
		Abort(2),
	}
	txns := s.Txns()
	if len(txns) != 2 || txns[0] != 1 || txns[1] != 2 {
		t.Errorf("Txns = %v", txns)
	}
	status := s.StatusOf()
	if status[1] != StatusCommitted || status[2] != StatusAborted {
		t.Errorf("status = %v", status)
	}
	committed := s.Committed()
	if len(committed) != 1 || committed[0] != 1 {
		t.Errorf("Committed = %v", committed)
	}
	proj := s.Proj(2)
	if !proj.Equal(history.History{history.Enq(2), history.DeqOk(1)}) {
		t.Errorf("Proj = %v", proj)
	}
	perm := s.Perm()
	if len(perm) != 2 { // T1's Enq and commit
		t.Errorf("Perm = %v", perm)
	}
	if !strings.Contains(s.String(), "⟨Enq(1)/Ok(), T1⟩") {
		t.Errorf("String = %q", s.String())
	}
	if (Schedule{}).String() != "Λ" {
		t.Errorf("empty schedule String")
	}
}

func TestWellFormed(t *testing.T) {
	good := Schedule{Step(1, history.Enq(1)), Commit(1), Step(2, history.Enq(2)), Abort(2)}
	if !good.WellFormed() {
		t.Errorf("good schedule rejected")
	}
	afterCommit := Schedule{Commit(1), Step(1, history.Enq(1))}
	if afterCommit.WellFormed() {
		t.Errorf("op after commit accepted")
	}
	commitAbort := Schedule{Commit(1), Abort(1)}
	if commitAbort.WellFormed() {
		t.Errorf("commit then abort accepted")
	}
	doubleCommit := Schedule{Commit(1), Commit(1)}
	if doubleCommit.WellFormed() {
		t.Errorf("double commit accepted")
	}
}

func TestSOpHelpers(t *testing.T) {
	if !Commit(1).IsCommit() || Commit(1).IsAbort() {
		t.Errorf("Commit classification")
	}
	if !Abort(1).IsAbort() || Abort(1).IsCommit() {
		t.Errorf("Abort classification")
	}
	st := Step(3, history.DeqOk(7))
	if st.IsCommit() || st.IsAbort() {
		t.Errorf("Step classification")
	}
	if st.String() != "⟨Deq()/Ok(7), T3⟩" {
		t.Errorf("String = %q", st.String())
	}
}

func TestSerializable(t *testing.T) {
	fifo := specs.FIFOQueue()
	// T1 enqueues 1, T2 enqueues 2, T1 dequeues 1: serializable as
	// T1 then T2 (or interleaved orders that put Enq(1) before Deq).
	s := Schedule{
		Step(1, history.Enq(1)),
		Step(2, history.Enq(2)),
		Step(1, history.DeqOk(1)),
		Commit(1), Commit(2),
	}
	if !Serializable(s, fifo) {
		t.Errorf("should serialize")
	}
	if !Atomic(s, fifo) {
		t.Errorf("should be atomic")
	}
	// Each transaction dequeues the other's enqueue: in order (T1, T2)
	// the Deq(2) precedes Enq(2); in order (T2, T1) the Deq(1) precedes
	// Enq(1). No serialization exists.
	bad := Schedule{
		Step(1, history.Enq(1)),
		Step(2, history.Enq(2)),
		Step(1, history.DeqOk(2)),
		Step(2, history.DeqOk(1)),
		Commit(1), Commit(2),
	}
	if Serializable(bad, fifo) {
		t.Errorf("should not serialize")
	}
}

func TestSerializableInOrder(t *testing.T) {
	fifo := specs.FIFOQueue()
	s := Schedule{
		Step(1, history.Enq(1)),
		Step(2, history.DeqOk(1)),
		Commit(2), Commit(1), // commit order: T2 then T1
	}
	// In commit order (T2, T1) the Deq precedes the Enq: illegal.
	if SerializableInOrder(s.Perm(), fifo, s.Committed()) {
		t.Errorf("commit order should fail")
	}
	if HybridAtomic(s, fifo) {
		t.Errorf("not hybrid atomic")
	}
	// But the schedule is serializable in the order (T1, T2).
	if !Serializable(s.Perm(), fifo) {
		t.Errorf("should serialize in some order")
	}
	if !Atomic(s, fifo) {
		t.Errorf("should be atomic")
	}
}

func TestAbortedTransactionsVanish(t *testing.T) {
	fifo := specs.FIFOQueue()
	// T2's dequeue aborts, so perm(H) contains only T1's enqueue.
	s := Schedule{
		Step(1, history.Enq(1)),
		Step(2, history.DeqOk(1)),
		Abort(2),
		Commit(1),
	}
	if !Atomic(s, fifo) {
		t.Errorf("aborted op should not count")
	}
}

func TestPermuteHelper(t *testing.T) {
	var perms [][]ID
	permute([]ID{1, 2, 3}, func(p []ID) bool {
		perms = append(perms, append([]ID(nil), p...))
		return true
	})
	if len(perms) != 6 {
		t.Errorf("permutations = %d", len(perms))
	}
}

func TestSerializablePanicsOnTooMany(t *testing.T) {
	var s Schedule
	for i := 1; i <= maxPermutationTxns+1; i++ {
		s = s.Append(Step(ID(i), history.Enq(i)))
	}
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	Serializable(s, specs.FIFOQueue())
}
