package cluster

import (
	"errors"
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/specs"
	"relaxlattice/internal/value"
)

func taxiCluster(t *testing.T, n int, assignment string) *Cluster {
	t.Helper()
	return New(Config{
		Sites:   n,
		Quorums: quorum.TaxiAssignments(n)[assignment],
		Base:    specs.PriorityQueue(),
		Fold:    quorum.PQFold(),
		Respond: PQResponder,
	})
}

func TestHealthyClusterIsPriorityQueue(t *testing.T) {
	c := taxiCluster(t, 5, "Q1Q2")
	dispatcher := c.Client(0)
	driver := c.Client(3)
	for _, e := range []int{2, 5, 1} {
		if _, err := dispatcher.Execute(history.EnqInv(e)); err != nil {
			t.Fatalf("Enq(%d): %v", e, err)
		}
	}
	var got []int
	for i := 0; i < 3; i++ {
		op, err := driver.Execute(history.DeqInv())
		if err != nil {
			t.Fatalf("Deq: %v", err)
		}
		got = append(got, op.Res[0])
	}
	want := []int{5, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", got, want)
		}
	}
	// The observed history is a legal priority-queue history.
	if !automaton.Accepts(specs.PriorityQueue(), c.Observed()) {
		t.Errorf("observed history not a PQ history: %v", c.Observed())
	}
}

func TestUnavailableWithoutQuorum(t *testing.T) {
	c := taxiCluster(t, 5, "Q1Q2")
	cl := c.Client(0)
	if _, err := cl.Execute(history.EnqInv(1)); err != nil {
		t.Fatalf("Enq: %v", err)
	}
	// Crash three of five sites: Deq (majority) can no longer proceed.
	c.Crash(2)
	c.Crash(3)
	c.Crash(4)
	if c.UpSites() != 2 {
		t.Fatalf("UpSites = %d", c.UpSites())
	}
	_, err := cl.Execute(history.DeqInv())
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	// A degrading client proceeds against the two reachable sites.
	cl.Degrade = true
	op, err := cl.Execute(history.DeqInv())
	if err != nil {
		t.Fatalf("degraded Deq: %v", err)
	}
	if op.Res[0] != 1 {
		t.Errorf("degraded Deq returned %v", op)
	}
}

func TestPartitionCausesDuplicateService(t *testing.T) {
	c := taxiCluster(t, 5, "Q1Q2")
	dispatcher := c.Client(0)
	if _, err := dispatcher.Execute(history.EnqInv(7)); err != nil {
		t.Fatalf("Enq: %v", err)
	}
	// Partition into {0,1} and {2,3,4}: the request is replicated on
	// sites 0..4 (final Enq quorum grew to all reachable), so both
	// sides can see it; neither side's Deq sees the other's.
	c.Partition([]int{0, 1}, []int{2, 3, 4})
	left := c.Client(0)
	left.Degrade = true
	right := c.Client(2)
	right.Degrade = true

	op1, err := left.Execute(history.DeqInv())
	if err != nil {
		t.Fatalf("left Deq: %v", err)
	}
	op2, err := right.Execute(history.DeqInv())
	if err != nil {
		t.Fatalf("right Deq: %v", err)
	}
	if op1.Res[0] != 7 || op2.Res[0] != 7 {
		t.Fatalf("both sides should service request 7: %v %v", op1, op2)
	}
	// The observed history is NOT a priority-queue history (request
	// serviced twice) but IS a multi-priority-queue history — exactly
	// the degradation Theorem 4 predicts for relaxing Q2.
	obs := c.Observed()
	if automaton.Accepts(specs.PriorityQueue(), obs) {
		t.Errorf("duplicate service accepted by PQ: %v", obs)
	}
	if !automaton.Accepts(specs.MultiPriorityQueue(), obs) {
		t.Errorf("observed history should be an MPQ history: %v", obs)
	}
}

func TestHealingRestoresPreferredBehavior(t *testing.T) {
	c := taxiCluster(t, 3, "Q1Q2")
	cl := c.Client(0)
	c.Partition([]int{0}, []int{1, 2})
	cl.Degrade = true
	if _, err := cl.Execute(history.EnqInv(4)); err != nil {
		t.Fatalf("partitioned Enq: %v", err)
	}
	c.Heal()
	c.Gossip()
	// After healing and propagation, a majority client sees the entry.
	driver := c.Client(1)
	op, err := driver.Execute(history.DeqInv())
	if err != nil {
		t.Fatalf("Deq after heal: %v", err)
	}
	if op.Res[0] != 4 {
		t.Errorf("Deq = %v", op)
	}
}

func TestCrashedHomeSiteReachesNothing(t *testing.T) {
	c := taxiCluster(t, 3, "none")
	cl := c.Client(1)
	cl.Degrade = true
	c.Crash(1)
	_, err := cl.Execute(history.EnqInv(1))
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("err = %v, want ErrUnavailable", err)
	}
}

func TestDeqOnEmptyViewFails(t *testing.T) {
	c := taxiCluster(t, 3, "Q1Q2")
	cl := c.Client(0)
	_, err := cl.Execute(history.DeqInv())
	if !errors.Is(err, ErrNoResponse) {
		t.Errorf("err = %v, want ErrNoResponse", err)
	}
}

func TestPropagateFromAndSiteLog(t *testing.T) {
	c := taxiCluster(t, 3, "none")
	cl := c.Client(0)
	c.Partition([]int{0}, []int{1, 2})
	cl.Degrade = true
	if _, err := cl.Execute(history.EnqInv(9)); err != nil {
		t.Fatalf("Enq: %v", err)
	}
	if c.SiteLog(1).Len() != 0 {
		t.Fatalf("entry leaked across partition")
	}
	c.Heal()
	c.PropagateFrom(0)
	if c.SiteLog(1).Len() != 1 || c.SiteLog(2).Len() != 1 {
		t.Errorf("propagation failed: %d %d", c.SiteLog(1).Len(), c.SiteLog(2).Len())
	}
	if c.MergedLog().Len() != 1 {
		t.Errorf("merged log = %d", c.MergedLog().Len())
	}
	// Propagating from a crashed site is a no-op.
	c.Crash(0)
	c.PropagateFrom(0)
	c.Restore(0)
}

func TestBankCluster(t *testing.T) {
	votes := quorum.NewVoting([]int{1, 1, 1}, map[string]quorum.OpQuorums{
		history.NameCredit: {Initial: 1, Final: 1}, // credits propagate lazily
		history.NameDebit:  {Initial: 2, Final: 2}, // A2: majorities
	})
	c := New(Config{
		Sites:   3,
		Quorums: votes,
		Base:    specs.BankAccount(),
		Fold:    quorum.AccountFold(),
		Respond: AccountResponder,
	})
	atm := c.Client(0)
	if _, err := atm.Execute(history.Invocation{Name: history.NameCredit, Args: []int{10}}); err != nil {
		t.Fatalf("Credit: %v", err)
	}
	op, err := atm.Execute(history.Invocation{Name: history.NameDebit, Args: []int{4}})
	if err != nil || op.Term != history.Ok {
		t.Fatalf("Debit: %v %v", op, err)
	}
	// Over-debit bounces.
	op, err = atm.Execute(history.Invocation{Name: history.NameDebit, Args: []int{100}})
	if err != nil || op.Term != history.Over {
		t.Fatalf("over-debit: %v %v", op, err)
	}
	// Global balance: 10 - 4 = 6.
	states := quorum.AccountFold().Eval(c.MergedLog().History())
	if states[0].(value.Account).Balance != 6 {
		t.Errorf("balance = %v", states[0])
	}
}

// A premature debit (before credit propagation) bounces spuriously but
// the account never overdraws — the Section 3.4 scenario.
func TestBankPrematureDebit(t *testing.T) {
	votes := quorum.NewVoting([]int{1, 1, 1}, map[string]quorum.OpQuorums{
		history.NameCredit: {Initial: 1, Final: 1},
		history.NameDebit:  {Initial: 2, Final: 2},
	})
	c := New(Config{
		Sites: 3, Quorums: votes, Base: specs.BankAccount(),
		Fold: quorum.AccountFold(), Respond: AccountResponder,
	})
	// Credit lands only at site 0 (final quorum 1, partitioned away).
	c.Partition([]int{0}, []int{1, 2})
	creditor := c.Client(0)
	creditor.Degrade = true
	if _, err := creditor.Execute(history.Invocation{Name: history.NameCredit, Args: []int{10}}); err != nil {
		t.Fatalf("Credit: %v", err)
	}
	// A debit from the other side misses the credit: spurious bounce.
	debtor := c.Client(1)
	op, err := debtor.Execute(history.Invocation{Name: history.NameDebit, Args: []int{5}})
	if err != nil || op.Term != history.Over {
		t.Fatalf("premature debit should bounce: %v %v", op, err)
	}
	// After propagation the same debit succeeds.
	c.Heal()
	c.Gossip()
	op, err = debtor.Execute(history.Invocation{Name: history.NameDebit, Args: []int{5}})
	if err != nil || op.Term != history.Ok {
		t.Fatalf("post-propagation debit: %v %v", op, err)
	}
	// The observed history is a SpuriousAccount history (never
	// overdrawn) though not a preferred Account history.
	obs := c.Observed()
	if automaton.Accepts(specs.BankAccount(), obs) {
		t.Errorf("spurious bounce accepted by preferred account: %v", obs)
	}
	if !automaton.Accepts(specs.SpuriousAccount(), obs) {
		t.Errorf("observed history should be a SpuriousAccount history: %v", obs)
	}
}

func TestConfigPanics(t *testing.T) {
	votes := quorum.Majority(3, history.NameEnq, history.NameDeq)
	base := specs.PriorityQueue()
	for name, cfg := range map[string]Config{
		"sites":    {Sites: 0, Quorums: votes, Base: base, Respond: PQResponder},
		"nil":      {Sites: 3},
		"mismatch": {Sites: 5, Quorums: votes, Base: base, Respond: PQResponder},
	} {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			New(cfg)
		}()
	}
	c := New(Config{Sites: 3, Quorums: votes, Base: base, Respond: PQResponder})
	defer func() {
		if recover() == nil {
			t.Errorf("client: expected panic")
		}
	}()
	c.Client(9)
}

// UpSites returns how many sites are currently up.
func (c *Cluster) UpSites() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, u := range c.up {
		if u {
			n++
		}
	}
	return n
}
