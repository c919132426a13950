package cluster

import (
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/specs"
	"relaxlattice/internal/value"
)

func fifoCluster(t *testing.T, n int, assignment string) *Cluster {
	t.Helper()
	return New(Config{
		Sites:   n,
		Quorums: quorum.TaxiAssignments(n)[assignment],
		Base:    specs.FIFOQueue(),
		Fold:    quorum.FIFOFold(),
		Respond: FIFOResponder,
	})
}

func TestHealthyFIFOCluster(t *testing.T) {
	c := fifoCluster(t, 5, "Q1Q2")
	producer := c.Client(0)
	consumer := c.Client(2)
	for _, e := range []int{7, 3, 9} {
		if _, err := producer.Execute(history.EnqInv(e)); err != nil {
			t.Fatalf("Enq: %v", err)
		}
	}
	var got []int
	for i := 0; i < 3; i++ {
		op, err := consumer.Execute(history.DeqInv())
		if err != nil {
			t.Fatalf("Deq: %v", err)
		}
		got = append(got, op.Res[0])
	}
	want := []int{7, 3, 9} // arrival order, not priority order
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", got, want)
		}
	}
	if !automaton.Accepts(specs.FIFOQueue(), c.Observed()) {
		t.Errorf("observed history not FIFO: %v", c.Observed())
	}
}

// A partition makes both sides re-serve the oldest request: the
// observed history leaves FIFO but stays inside MFQueue — the
// operational counterpart of the FIFO Theorem-4 analog.
func TestFIFOPartitionDuplicatesInOrder(t *testing.T) {
	c := fifoCluster(t, 5, "Q1Q2")
	producer := c.Client(0)
	if _, err := producer.Execute(history.EnqInv(7)); err != nil {
		t.Fatalf("Enq: %v", err)
	}
	c.Partition([]int{0, 1}, []int{2, 3, 4})
	left, right := c.Client(0), c.Client(2)
	left.Degrade, right.Degrade = true, true
	op1, err1 := left.Execute(history.DeqInv())
	op2, err2 := right.Execute(history.DeqInv())
	if err1 != nil || err2 != nil {
		t.Fatalf("degraded Deqs: %v %v", err1, err2)
	}
	if op1.Res[0] != 7 || op2.Res[0] != 7 {
		t.Fatalf("both sides should serve request 7: %v %v", op1, op2)
	}
	obs := c.Observed()
	if automaton.Accepts(specs.FIFOQueue(), obs) {
		t.Errorf("duplicate service accepted by FIFO: %v", obs)
	}
	if !automaton.Accepts(specs.MultiFIFOQueue(), obs) {
		t.Errorf("observed history should be an MFQueue history: %v", obs)
	}
}

// FIFOResponder responds to FIFO-queue invocations: Enq echoes Ok, and
// Deq returns the oldest element of the view — "dequeue the oldest
// apparently unserved request" under η_fifo.
func FIFOResponder(s value.Value, inv history.Invocation) (history.Op, bool) {
	switch inv.Name {
	case history.NameEnq:
		return inv.WithResponse(history.Ok, nil), true
	case history.NameDeq:
		q, ok := s.(value.Seq)
		if !ok {
			return history.Op{}, false
		}
		first, nonEmpty := q.First()
		if !nonEmpty {
			return history.Op{}, false
		}
		return inv.WithResponse(history.Ok, []int{int(first)}), true
	default:
		return history.Op{}, false
	}
}
