// Bank ATM network (Section 3.4): customer accounts replicated at
// branch offices. To keep ATM interactions fast, a credit announces
// success as soon as one branch records it; the remaining updates
// propagate in the background. Debits always consult a majority of
// branches (constraint A2), so the account can never be overdrawn —
// but a debit racing a fresh credit may bounce spuriously (constraint
// A1 relaxed). The lattice makes the trade precise: the account's φ is
// defined only on the sublattice containing A2.
//
// Run with: go run ./examples/bankatm
package main

import (
	"fmt"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/specs"
	"relaxlattice/internal/value"
)

func credit(n int) history.Invocation {
	return history.Invocation{Name: history.NameCredit, Args: []int{n}}
}

func debit(n int) history.Invocation {
	return history.Invocation{Name: history.NameDebit, Args: []int{n}}
}

// must aborts the demo on unexpected protocol errors: every Execute
// below is expected to succeed — bounces are responses, not errors.
func must(op history.Op, err error) history.Op {
	if err != nil {
		panic(err)
	}
	return op
}

func main() {
	// Three branches; credits land at one site, debits need a majority.
	votes := quorum.NewVoting([]int{1, 1, 1}, map[string]quorum.OpQuorums{
		history.NameCredit: {Initial: 1, Final: 1},
		history.NameDebit:  {Initial: 2, Final: 2},
	})
	c := cluster.New(cluster.Config{
		Sites:   3,
		Quorums: votes,
		Base:    specs.BankAccount(),
		Fold:    quorum.AccountFold(),
		Respond: cluster.AccountResponder,
	})

	// A paycheck lands at branch 0 while the backbone to branches 1 and
	// 2 is congested (the credit's final quorum will grow later).
	c.Partition([]int{0}, []int{1, 2})
	payroll := c.Client(0)
	payroll.Degrade = true
	op := must(payroll.Execute(credit(100)))
	fmt.Printf("payroll at branch 0:   %v (propagation pending)\n", op)

	// The customer immediately tries to withdraw at branch 1: the
	// majority view {1,2} has not seen the credit — a premature debit.
	c.Partition([]int{1, 2}, []int{0})
	customer := c.Client(1)
	op = must(customer.Execute(debit(60)))
	fmt.Printf("customer at branch 1:  %v  <- spurious bounce (A1 violated)\n", op)

	// Background propagation completes; the same withdrawal succeeds.
	c.Heal()
	c.Gossip()
	op = must(customer.Execute(debit(60)))
	fmt.Printf("after propagation:     %v\n", op)

	// A genuinely excessive withdrawal still bounces.
	op = must(customer.Execute(debit(500)))
	fmt.Printf("overdraft attempt:     %v  <- real bounce\n", op)

	// The global balance is consistent and never went negative.
	states := quorum.AccountFold().EvalLog(c.MergedLog())
	fmt.Printf("\ntrue balance: %d (never negative: A2 held throughout)\n",
		states[0].(value.Account).Balance)

	// Lattice view: the observed history is not a preferred Account
	// history (the spurious bounce), but it is a SpuriousAccount
	// history — exactly φ({A2}).
	obs := c.Observed()
	fmt.Printf("\nobserved history: %v\n", obs)
	lat := core.AccountLattice()
	sets, _ := lat.WeakestAccepting(obs)
	for _, s := range sets {
		a, _ := lat.Phi(s)
		fmt.Printf("degradation audit: %s → %s\n", lat.Universe.Format(s), a.Name())
	}
	fmt.Printf("  preferred Account accepts:  %v\n", automaton.Accepts(specs.BankAccount(), obs))
	fmt.Printf("  SpuriousAccount accepts:    %v\n", automaton.Accepts(specs.SpuriousAccount(), obs))
	fmt.Println("\nφ is deliberately undefined below {A2}: the bank bounces checks")
	fmt.Println("spuriously but never overdraws — a sublattice, not the full 2^C.")
}
