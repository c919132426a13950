// Grid store: the quorum machinery generalized beyond weighted voting.
// A priority queue is replicated over a 2×3 grid of sites where initial
// quorums are rows and final quorums are columns — every row meets
// every column, so one-copy serializability holds with quorums of size
// O(√n). When a whole row of sites is lost, no quorum survives; a
// degrading client keeps working against what remains, and the
// relaxation lattice names the behavior it got.
//
// Run with: go run ./examples/gridstore
package main

import (
	"fmt"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/specs"
)

// must aborts the demo on unexpected protocol errors: the Execute
// calls routed through it are expected to succeed.
func must(op history.Op, err error) history.Op {
	if err != nil {
		panic(err)
	}
	return op
}

func main() {
	grid := quorum.Grid(2, 3, history.NameEnq, history.NameDeq)
	fmt.Println("2×3 grid: initial quorums = rows {0,1,2} {3,4,5}; final quorums = columns {0,3} {1,4} {2,5}")
	fmt.Printf("rows always meet columns → realized relation: %v\n", quorum.Joint(grid))
	fmt.Printf("Deq availability at site-up 0.9: %.4f (quorum size 2-3 of 6 sites)\n\n",
		grid.Availability(history.NameDeq, 0.9))

	c := cluster.New(cluster.Config{
		Sites:   6,
		Quorums: grid,
		Base:    specs.PriorityQueue(),
		Fold:    quorum.PQFold(),
		Respond: cluster.PQResponder,
	})
	cl := c.Client(0)
	for _, p := range []int{4, 9, 2} {
		op, err := cl.Execute(history.EnqInv(p))
		fmt.Printf("enqueue: %v (err=%v)\n", op, err)
	}
	op := must(cl.Execute(history.DeqInv()))
	fmt.Printf("dequeue: %v  <- best first, one-copy serializable\n\n", op)

	// Losing a full row kills every column quorum.
	fmt.Println("!! sites 3,4,5 (the second row) crash")
	for _, s := range []int{3, 4, 5} {
		c.Crash(s)
	}
	if _, err := cl.Execute(history.DeqInv()); err != nil {
		fmt.Printf("strict client: %v\n", err)
	}

	// Degradation: operate on the surviving row.
	cl.Degrade = true
	op, err := cl.Execute(history.DeqInv())
	fmt.Printf("degrading client: %v (err=%v)\n", op, err)

	// The second row recovers with stale logs; before gossip its view
	// misses the degraded dequeue. A degrading client over there
	// re-services request 4.
	for _, s := range []int{3, 4, 5} {
		c.Restore(s)
	}
	c.Partition([]int{0, 1, 2}, []int{3, 4, 5})
	other := c.Client(3)
	other.Degrade = true
	// The second row never saw any entries (Enq final quorums were
	// columns, which include row-2 sites... which were up at enqueue
	// time), so it still holds the three enqueues.
	op2, err := other.Execute(history.DeqInv())
	fmt.Printf("stale row client:  %v (err=%v)\n\n", op2, err)

	obs := c.Observed()
	fmt.Printf("observed history: %v\n", obs)
	lat := core.TaxiSimpleLattice()
	sets, ok := lat.WeakestAccepting(obs)
	if !ok {
		fmt.Println("outside the lattice")
		return
	}
	for _, s := range sets {
		a, _ := lat.Phi(s)
		fmt.Printf("degradation audit: %s → %s\n", lat.Universe.Format(s), a.Name())
	}
	fmt.Printf("accepted by MPQueue: %v (duplicates tolerated, order preserved)\n",
		automaton.Accepts(specs.MultiPriorityQueue(), obs))
}
