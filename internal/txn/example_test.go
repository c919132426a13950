package txn_test

import (
	"fmt"

	"relaxlattice/internal/specs"
	"relaxlattice/internal/txn"
	"relaxlattice/internal/value"
)

func valueElem(n int) value.Elem { return value.Elem(n) }

// Two printer controllers collide on the spool queue; the optimistic
// strategy lets the second skip ahead, and the resulting schedule is
// atomic for Semiqueue_2 — one lattice step below FIFO.
func ExampleQueue() {
	q := txn.NewQueue(txn.Optimistic)
	for _, f := range []int{1, 2} {
		t := q.Begin()
		_ = q.Enq(t, valueElem(f))
		_ = q.Commit(t)
	}
	printerA, printerB := q.Begin(), q.Begin()
	a, _ := q.Deq(printerA)
	b, _ := q.Deq(printerB) // skips the file printerA holds
	fmt.Printf("printer A got %d, printer B got %d\n", a, b)
	_ = q.Commit(printerB) // B finishes first
	_ = q.Commit(printerA)
	s := q.Schedule()
	fmt.Println("FIFO atomic:       ", txn.HybridAtomic(s, specs.FIFOQueue()))
	fmt.Println("Semiqueue_2 atomic:", txn.HybridAtomic(s, specs.Semiqueue(2)))
	// Output:
	// printer A got 1, printer B got 2
	// FIFO atomic:        false
	// Semiqueue_2 atomic: true
}
