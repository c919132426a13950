package integration

import (
	"testing"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/sim"
	"relaxlattice/internal/specs"
	"relaxlattice/internal/value"
)

func bankCluster(creditFinal, debitQuorum int) *cluster.Cluster {
	votes := quorum.NewVoting([]int{1, 1, 1, 1, 1}, map[string]quorum.OpQuorums{
		history.NameCredit: {Initial: 1, Final: creditFinal},
		history.NameDebit:  {Initial: debitQuorum, Final: debitQuorum},
	})
	return cluster.New(cluster.Config{
		Sites:   5,
		Quorums: votes,
		Base:    specs.BankAccount(),
		Fold:    quorum.AccountFold(),
		Respond: cluster.AccountResponder,
	})
}

// randomBankWorkload runs credits and debits from random sites under
// random crash/partition churn.
func randomBankWorkload(g *sim.RNG, c *cluster.Cluster, ops int, degrade bool) {
	for i := 0; i < ops; i++ {
		switch g.Intn(7) {
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
		if g.Bool(0.55) {
			// Section 3.4: credits may complete at whatever sites are
			// reachable (their final quorums grow later)...
			cl.Degrade = degrade
			_, _ = cl.Execute(history.Invocation{Name: history.NameCredit, Args: []int{1 + g.Intn(4)}})
		} else {
			// ...but debits always access a majority (A2 is never
			// relaxed), failing outright when none is reachable.
			_, _ = cl.Execute(history.Invocation{Name: history.NameDebit, Args: []int{1 + g.Intn(4)}})
		}
	}
}

// With both A1 and A2 realized (credit finals and debit quorums are
// majorities), a non-degrading bank cluster is one-copy serializable
// under arbitrary faults: every observed history lies in L(Account).
func TestBankClusterFullConstraintsSerializable(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := sim.NewRNG(seed)
		c := bankCluster(3, 3)
		randomBankWorkload(g, c, 70, false)
		obs := c.Observed()
		if !automaton.Accepts(specs.BankAccount(), obs) {
			t.Fatalf("seed %d: full-constraint bank left L(Account): %v", seed, obs)
		}
	}
}

// With lazy credits (A1 relaxed by a final credit quorum of one) the
// cluster may bounce spuriously but stays within L(SpuriousAccount):
// the balance invariant survives because A2 still holds.
func TestBankClusterLazyCreditsSpurious(t *testing.T) {
	sawDegradation := false
	lat := core.AccountLattice()
	for seed := int64(50); seed < 62; seed++ {
		g := sim.NewRNG(seed)
		c := bankCluster(1, 3)
		randomBankWorkload(g, c, 70, true)
		obs := c.Observed()
		if !automaton.Accepts(specs.SpuriousAccount(), obs) {
			t.Fatalf("seed %d: lazy-credit bank left L(SpuriousAccount): %v", seed, obs)
		}
		if !automaton.Accepts(specs.BankAccount(), obs) {
			sawDegradation = true
		}
		// The true balance never goes negative.
		states := quorum.AccountFold().Eval(c.MergedLog().History())
		if states[0].(value.Account).Balance < 0 {
			t.Fatalf("seed %d: overdraft with A2 held", seed)
		}
		// The lattice audit agrees.
		if sets, ok := lat.WeakestAccepting(obs); !ok || len(sets) == 0 {
			t.Fatalf("seed %d: history outside the account lattice", seed)
		}
	}
	if !sawDegradation {
		t.Errorf("no seed exercised a spurious bounce; weaken the workload")
	}
}
