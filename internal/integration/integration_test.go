// Package integration cross-checks the substrates against the formal
// machinery end-to-end: operational runs (cluster protocols, the
// transactional queue runtimes) must always land exactly where the
// relaxation lattices predict, over randomized workloads, fault
// schedules, and interleavings.
package integration

import (
	"fmt"
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/sim"
	"relaxlattice/internal/specs"
	"relaxlattice/internal/txn"
	"relaxlattice/internal/value"
)

// Operational one-copy serializability: a cluster whose clients never
// degrade produces priority-queue histories under ANY schedule of
// crashes, partitions, and repairs — operations fail when quorums are
// missing, but completed operations are always one-copy serializable.
func TestClusterNonDegradingAlwaysSerializable(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := sim.NewRNG(seed)
		c := cluster.New(cluster.Config{
			Sites:   5,
			Quorums: quorum.TaxiAssignments(5)["Q1Q2"],
			Base:    specs.PriorityQueue(),
			Fold:    quorum.PQFold(),
			Respond: cluster.PQResponder,
		})
		for i := 0; i < 80; i++ {
			switch g.Intn(6) {
			case 0:
				c.Crash(g.Intn(5))
			case 1:
				c.Restore(g.Intn(5))
				c.Gossip()
			case 2:
				cut := 1 + g.Intn(4)
				perm := g.Perm(5)
				c.Partition(perm[:cut], perm[cut:])
			case 3:
				c.Heal()
				c.Gossip()
			}
			cl := c.Client(g.Intn(5))
			if g.Bool(0.6) {
				_, _ = cl.Execute(history.EnqInv(1 + g.Intn(9)))
			} else {
				_, _ = cl.Execute(history.DeqInv())
			}
		}
		obs := c.Observed()
		if !automaton.Accepts(specs.PriorityQueue(), obs) {
			t.Fatalf("seed %d: non-degrading cluster left L(PQ): %v", seed, obs)
		}
	}
}

// Degrading clients may slide down the lattice but never below its
// bottom: every completed Deq returns something that was enqueued.
func TestClusterDegradingStaysInLattice(t *testing.T) {
	lat := core.TaxiSimpleLattice()
	for seed := int64(100); seed < 106; seed++ {
		g := sim.NewRNG(seed)
		c := cluster.New(cluster.Config{
			Sites:   5,
			Quorums: quorum.TaxiAssignments(5)["Q1Q2"],
			Base:    specs.PriorityQueue(),
			Fold:    quorum.PQFold(),
			Respond: cluster.PQResponder,
		})
		for i := 0; i < 60; i++ {
			switch g.Intn(6) {
			case 0:
				c.Crash(g.Intn(5))
			case 1:
				c.Restore(g.Intn(5))
			case 2:
				cut := 1 + g.Intn(4)
				perm := g.Perm(5)
				c.Partition(perm[:cut], perm[cut:])
			case 3:
				c.Heal()
				c.Gossip()
			}
			cl := c.Client(g.Intn(5))
			cl.Degrade = true
			if g.Bool(0.6) {
				_, _ = cl.Execute(history.EnqInv(1 + g.Intn(9)))
			} else {
				_, _ = cl.Execute(history.DeqInv())
			}
		}
		obs := c.Observed()
		sets, ok := lat.WeakestAccepting(obs)
		if !ok {
			t.Fatalf("seed %d: observed history outside the lattice: %v", seed, obs)
		}
		if len(sets) == 0 {
			t.Fatalf("seed %d: no accepting element", seed)
		}
	}
}

// randomTxnWorkload drives a queue runtime with a random interleaving
// of begins, enqueues, dequeues, commits, and aborts, returning the
// schedule and the concurrency high-water mark.
func randomTxnWorkload(g *sim.RNG, strategy txn.Strategy, steps int) (txn.Schedule, int) {
	q := txn.NewQueue(strategy)
	var active []txn.ID
	next := 1
	for i := 0; i < steps; i++ {
		switch {
		case len(active) == 0 || (len(active) < 4 && g.Bool(0.3)):
			active = append(active, q.Begin())
		case g.Bool(0.25):
			// Finish a random active transaction.
			k := g.Intn(len(active))
			tx := active[k]
			active = append(active[:k], active[k+1:]...)
			if g.Bool(0.25) {
				_ = q.AbortTxn(tx)
			} else {
				_ = q.Commit(tx)
			}
		default:
			tx := active[g.Intn(len(active))]
			if g.Bool(0.5) {
				_ = q.Enq(tx, value.Elem(next))
				next++
			} else {
				_, _ = q.Deq(tx) // ErrBlocked/ErrEmpty tolerated
			}
		}
	}
	for _, tx := range active {
		_ = q.Commit(tx)
	}
	return q.Schedule(), q.MaxConcurrentDequeuers()
}

// deqOrderWitness returns a serialization order for the committed
// transactions of s: pure dequeuers (no enqueues) in order of their
// first Deq, everyone else at its commit point. Pure dequeuers must
// serialize in dequeue order — a stutterer serializes before the
// remover it raced even if it commits later — while transactions that
// also enqueue must serialize at commit, where their items join the
// queue. An item a transaction holds can only move toward the front
// between its dequeue and its commit (items ahead get consumed; new
// items join behind), so deferring mixed transactions to commit stays
// within the same lattice element.
func deqOrderWitness(s txn.Schedule) []txn.ID {
	status := s.StatusOf()
	hasEnq := map[txn.ID]bool{}
	for _, st := range s {
		if st.Op.Name == history.NameEnq {
			hasEnq[st.Txn] = true
		}
	}
	pos := map[txn.ID]int{}
	for i, st := range s {
		if status[st.Txn] != txn.StatusCommitted {
			continue
		}
		switch {
		case st.Op.Name == history.NameDeq && !hasEnq[st.Txn]:
			// Pure dequeuer: last Deq (a blocking transaction may
			// dequeue several times, and a later enqueuer's item can
			// feed its later dequeues; dequeue intervals of distinct
			// transactions never overlap, so this preserves stutter
			// order for the single-Deq strategies).
			pos[st.Txn] = i
		case st.IsCommit():
			if _, seen := pos[st.Txn]; !seen {
				pos[st.Txn] = i
			}
		}
	}
	order := make([]txn.ID, 0, len(pos))
	for t := range pos {
		order = append(order, t)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && pos[order[j]] < pos[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// Differential property: every random run of each strategy is
// serializable (via the dequeue-order witness) against the behavior
// its lattice predicts at the observed concurrency level.
func TestRandomTxnWorkloadsMatchLattice(t *testing.T) {
	predictions := map[txn.Strategy]func(k int) automaton.Automaton{
		txn.Blocking:    func(int) automaton.Automaton { return specs.FIFOQueue() },
		txn.Optimistic:  func(k int) automaton.Automaton { return specs.Semiqueue(max1(k)) },
		txn.Pessimistic: func(k int) automaton.Automaton { return specs.StutteringQueue(max1(k)) },
	}
	for strategy, predict := range predictions {
		checked := 0
		for seed := int64(0); seed < 100; seed++ {
			g := sim.NewRNG(seed)
			steps := 40
			if strategy == txn.Pessimistic {
				steps = 28 // keep committed-transaction counts permutable
			}
			s, k := randomTxnWorkload(g, strategy, steps)
			if !s.WellFormed() {
				t.Fatalf("%v seed %d: ill-formed schedule %v", strategy, seed, s)
			}
			a := predict(k)
			if strategy == txn.Pessimistic {
				// Pessimistic stutter groups serialize in an order no
				// single positional witness captures (stutterers before
				// the remover, groups in item order, enqueuers
				// interleaved); check Definition 6 directly by
				// permutation search where feasible.
				if len(s.Perm().Txns()) > 7 {
					continue
				}
				checked++
				if !txn.Atomic(s, a) {
					t.Errorf("%v seed %d (k=%d): schedule not atomic for %s:\n%v",
						strategy, seed, k, a.Name(), s)
				}
				if k >= 1 && !txn.Atomic(s, specs.SSQueue(max1(k), max1(k))) {
					t.Errorf("%v seed %d: outside SSqueue_%d_%d", strategy, seed, k, k)
				}
				continue
			}
			checked++
			witness := deqOrderWitness(s)
			if !txn.SerializableInOrder(s.Perm(), a, witness) {
				t.Errorf("%v seed %d (k=%d): schedule not serializable for %s:\n%v",
					strategy, seed, k, a.Name(), s)
			}
			// Everything is also within the combined SSqueue_kk bound.
			if k >= 1 && !txn.SerializableInOrder(s.Perm(), specs.SSQueue(max1(k), max1(k)), witness) {
				t.Errorf("%v seed %d: outside SSqueue_%d_%d", strategy, seed, k, k)
			}
			// The blocking strategy serializes dequeuers, so it is also
			// hybrid atomic (commit order).
			if strategy == txn.Blocking && !txn.HybridAtomic(s, a) {
				t.Errorf("blocking seed %d: not hybrid atomic", seed)
			}
		}
		if checked < 40 {
			t.Errorf("%v: only %d seeds checked", strategy, checked)
		}
	}
}

func max1(k int) int {
	if k < 1 {
		return 1
	}
	return k
}

// Random-history differential check extending Theorem 4 beyond the
// exhaustive bound: sample histories accepted by either side at length
// up to 10 and require agreement.
func TestTheorem4OnSampledLongHistories(t *testing.T) {
	qca := quorum.NewQCA("QCA(PQ,Q1,η)", specs.PriorityQueue(), quorum.Q1(), quorum.PQFold())
	mpq := specs.MultiPriorityQueue()
	alphabet := history.QueueAlphabet(3)
	g := sim.NewRNG(1987)
	const walks = 120
	for w := 0; w < walks; w++ {
		// Random walk through L(MPQ), checking QCA agreement at every
		// step; also probe one random rejected extension per step.
		h := history.Empty
		for step := 0; step < 10; step++ {
			// Collect MPQ-accepted extensions.
			var accepted []history.Op
			for _, op := range alphabet {
				if automaton.Accepts(mpq, h.Append(op)) {
					accepted = append(accepted, op)
				} else if automaton.Accepts(qca, h.Append(op)) {
					t.Fatalf("QCA accepts %v · %v, MPQ rejects", h, op)
				}
			}
			if len(accepted) == 0 {
				break
			}
			op := accepted[g.Intn(len(accepted))]
			h = h.Append(op)
			if !automaton.Accepts(qca, h) {
				t.Fatalf("MPQ accepts %v, QCA rejects", h)
			}
		}
	}
}

// End-to-end: a degraded cluster execution audited by the lattice, then
// replayed against the QCA automaton itself — the formal object accepts
// exactly what the operational system produced.
func TestObservedHistoryAcceptedByQCA(t *testing.T) {
	c := cluster.New(cluster.Config{
		Sites:   5,
		Quorums: quorum.TaxiAssignments(5)["Q1Q2"],
		Base:    specs.PriorityQueue(),
		Fold:    quorum.PQFold(),
		Respond: cluster.PQResponder,
	})
	dispatcher := c.Client(0)
	if _, err := dispatcher.Execute(history.EnqInv(7)); err != nil {
		t.Fatalf("Enq: %v", err)
	}
	c.Partition([]int{0, 1}, []int{2, 3, 4})
	left, right := c.Client(0), c.Client(2)
	left.Degrade, right.Degrade = true, true
	if _, err := left.Execute(history.DeqInv()); err != nil {
		t.Fatalf("left Deq: %v", err)
	}
	if _, err := right.Execute(history.DeqInv()); err != nil {
		t.Fatalf("right Deq: %v", err)
	}
	obs := c.Observed()
	// The duplicate service is justified by QCA(PQ, Q1, η) — the formal
	// counterpart of "the partition broke exactly Q2".
	qca := quorum.NewQCA("QCA(PQ,Q1,η)", specs.PriorityQueue(), quorum.Q1(), quorum.PQFold())
	if !automaton.Accepts(qca, obs) {
		t.Fatalf("QCA(PQ,Q1,η) rejects the partitioned execution: %v", obs)
	}
	// And the witness view explains it: the second Deq's justifying
	// view omits the first Deq.
	w, ok := qca.Witness(obs[:len(obs)-1:len(obs)-1], obs[len(obs)-1])
	if !ok {
		t.Fatalf("no witness")
	}
	for _, op := range w {
		if op.Name == history.NameDeq {
			t.Errorf("witness should omit the concurrent Deq: %v", w)
		}
	}
}

// Availability measured on the live cluster matches the assignment's
// analytic prediction.
func TestClusterAvailabilityMatchesAnalytic(t *testing.T) {
	voting := quorum.TaxiAssignments(5)["Q1Q2"]
	pUp := 0.7
	g := sim.NewRNG(3)
	var r sim.Ratio
	const trials = 3000
	for i := 0; i < trials; i++ {
		c := cluster.New(cluster.Config{
			Sites:   5,
			Quorums: voting,
			Base:    specs.PriorityQueue(),
			Fold:    quorum.PQFold(),
			Respond: cluster.PQResponder,
		})
		seedQueue(t, c)
		up := -1
		for s := 0; s < 5; s++ {
			if g.Bool(pUp) {
				if up < 0 {
					up = s
				}
			} else {
				c.Crash(s)
			}
		}
		if up < 0 {
			r.Observe(false)
			continue
		}
		_, err := c.Client(up).Execute(history.DeqInv())
		r.Observe(err == nil)
	}
	want := voting.Availability(history.NameDeq, pUp)
	if diff := r.Value() - want; diff > 0.03 || diff < -0.03 {
		t.Errorf("measured availability %v, analytic %v", r.Value(), want)
	}
}

func seedQueue(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	cl := c.Client(0)
	if _, err := cl.Execute(history.EnqInv(5)); err != nil {
		t.Fatalf("seed Enq: %v", err)
	}
}

// Sanity: the experiment registry and the lattice tooling agree on the
// paper's headline numbers when run at a larger bound than the unit
// tests use.
func TestTheorem4AtLargerBound(t *testing.T) {
	if testing.Short() {
		t.Skip("long bound")
	}
	r := core.CheckTheorem4(core.Bound{MaxElem: 3, MaxLen: 6})
	if !r.Holds() {
		t.Fatalf("Theorem 4 fails at 3 elements: onlyQCA=%v onlyMPQ=%v",
			r.Compare.OnlyA, r.Compare.OnlyB)
	}
	var total uint64
	for _, n := range r.Compare.CountA {
		total += n
	}
	if total < 2000 {
		t.Errorf("suspiciously small language: %d", total)
	}
	_ = fmt.Sprintf("%v", r)
}
