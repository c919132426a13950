package quorum_test

import (
	"fmt"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/specs"
)

// QCA(PQ, Q₁, η) tolerates duplicate service but never reorders —
// Theorem 4 in miniature.
func ExampleQCA() {
	qca := quorum.NewQCA("QCA(PQ,Q1,η)", specs.PriorityQueue(), quorum.Q1(), quorum.PQFold())
	dup := history.History{history.Enq(3), history.DeqOk(3), history.DeqOk(3)}
	ooo := history.History{history.Enq(1), history.Enq(3), history.DeqOk(1)}
	fmt.Println("duplicate service: ", automaton.Accepts(qca, dup))
	fmt.Println("out-of-order service:", automaton.Accepts(qca, ooo))
	// Output:
	// duplicate service:  true
	// out-of-order service: false
}

// Weighted voting decides which quorum intersection constraints hold
// and what availability each operation gets.
func ExampleVoting() {
	v := quorum.TaxiAssignments(5)["Q1Q2"]
	rel := quorum.Joint(v)
	fmt.Println("Q1 (Deq sees Enq):", quorum.Q1().IsSubrelationOf(rel))
	fmt.Println("Q2 (Deq sees Deq):", quorum.Q2().IsSubrelationOf(rel))
	fmt.Printf("Deq availability at 90%% site-up: %.4f\n", v.Availability(history.NameDeq, 0.9))
	// Output:
	// Q1 (Deq sees Enq): true
	// Q2 (Deq sees Deq): true
	// Deq availability at 90% site-up: 0.9914
}

// The serial dependency check (Definition 3) explains why relaxing Q₂
// is what permits duplicate service.
func ExampleIsSerialDependency() {
	full := quorum.Q1().Union(quorum.Q2())
	ok, _ := quorum.IsSerialDependency(specs.PriorityQueue(), full, history.QueueAlphabet(2), 4)
	fmt.Println("{Q1,Q2} serial dependency for PQ:", ok)
	ok, violation := quorum.IsSerialDependency(specs.PriorityQueue(), quorum.Q1(), history.QueueAlphabet(2), 4)
	fmt.Println("{Q1} serial dependency for PQ:  ", ok)
	fmt.Println("counterexample:", violation)
	// Output:
	// {Q1,Q2} serial dependency for PQ: true
	// {Q1} serial dependency for PQ:   false
	// counterexample: H=Enq(1)/Ok() · Deq()/Ok(1), Q-view G=Enq(1)/Ok(), p=Deq()/Ok(1): G·p ∈ L(A) but H·p ∉ L(A)
}
