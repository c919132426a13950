package core

import (
	"sync"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/specs"
)

// Bound configures bounded model checking: all histories over the
// element domain {1..MaxElem} of length ≤ MaxLen are enumerated.
type Bound struct {
	MaxElem int
	MaxLen  int
}

// DefaultBound is large enough to exercise every interaction the
// paper's proofs induct over while keeping checks fast.
var DefaultBound = Bound{MaxElem: 2, MaxLen: 6}

func (b Bound) alphabet() []history.Op { return history.QueueAlphabet(b.MaxElem) }

// ClaimResult is the outcome of checking one language-equivalence
// claim.
type ClaimResult struct {
	// Name identifies the claim, e.g. "Theorem 4".
	Name string
	// LHS and RHS name the compared automata.
	LHS, RHS string
	// Compare holds the per-length counts and counterexamples.
	Compare automaton.CompareResult
}

// Holds reports whether the claim held up to the bound.
func (r ClaimResult) Holds() bool { return r.Compare.Equal }

// CheckTheorem4 verifies Theorem 4 up to the bound:
// L(QCA(PQ, Q₁, η)) = L(MPQ).
func CheckTheorem4(b Bound) ClaimResult {
	qca := quorum.NewQCA("QCA(PQ,{Q1},η)", specs.PriorityQueue(), quorum.Q1(), quorum.PQFold())
	mpq := specs.MultiPriorityQueue()
	return ClaimResult{
		Name:    "Theorem 4",
		LHS:     qca.Name(),
		RHS:     mpq.Name(),
		Compare: automaton.Compare(qca.Compiled(), mpq, b.alphabet(), b.MaxLen),
	}
}

// CheckOutOfOrderClaim verifies the companion claim of Section 3.3:
// L(QCA(PQ, Q₂, η)) = L(OPQ).
func CheckOutOfOrderClaim(b Bound) ClaimResult {
	qca := quorum.NewQCA("QCA(PQ,{Q2},η)", specs.PriorityQueue(), quorum.Q2(), quorum.PQFold())
	opq := specs.OutOfOrderQueue()
	return ClaimResult{
		Name:    "Out-of-order claim",
		LHS:     qca.Name(),
		RHS:     opq.Name(),
		Compare: automaton.Compare(qca.Compiled(), opq, b.alphabet(), b.MaxLen),
	}
}

// CheckDegenerateClaim verifies the final claim of Section 3.3:
// L(QCA(PQ, ∅, η)) = L(DegenPQ).
func CheckDegenerateClaim(b Bound) ClaimResult {
	qca := quorum.NewQCA("QCA(PQ,∅,η)", specs.PriorityQueue(), quorum.NewRelation(), quorum.PQFold())
	degen := specs.DegeneratePriorityQueue()
	return ClaimResult{
		Name:    "Degenerate claim",
		LHS:     qca.Name(),
		RHS:     degen.Name(),
		Compare: automaton.Compare(qca.Compiled(), degen, b.alphabet(), b.MaxLen),
	}
}

// CheckOneCopySerializability verifies the top of the lattice:
// L(QCA(PQ, {Q₁,Q₂}, η)) = L(PQ), i.e. quorum consensus with the full
// constraint set is one-copy serializable (Section 3.2).
func CheckOneCopySerializability(b Bound) ClaimResult {
	qca := quorum.NewQCA("QCA(PQ,{Q1,Q2},η)", specs.PriorityQueue(), quorum.Q1().Union(quorum.Q2()), quorum.PQFold())
	pq := specs.PriorityQueue()
	return ClaimResult{
		Name:    "One-copy serializability",
		LHS:     qca.Name(),
		RHS:     pq.Name(),
		Compare: automaton.Compare(qca.Compiled(), pq, b.alphabet(), b.MaxLen),
	}
}

// CheckAccountClaims verifies the account analogues (our formalization
// of Section 3.4): QCA(Account, {A₁,A₂}, η) = Account and
// QCA(Account, {A₂}, η) = SpuriousAccount, over the amount domain
// {1..MaxElem}.
func CheckAccountClaims(b Bound) []ClaimResult {
	alphabet := history.AccountAlphabet(b.MaxElem)
	full := quorum.NewQCA("QCA(Acct,{A1,A2},η)", specs.BankAccount(), quorum.A1().Union(quorum.A2()), quorum.AccountFold())
	relaxed := quorum.NewQCA("QCA(Acct,{A2},η)", specs.BankAccount(), quorum.A2(), quorum.AccountFold())
	return checkConcurrently(
		func() ClaimResult {
			return ClaimResult{
				Name:    "Account one-copy serializability",
				LHS:     full.Name(),
				RHS:     "Account",
				Compare: automaton.Compare(full.Compiled(), specs.BankAccount(), alphabet, b.MaxLen),
			}
		},
		func() ClaimResult {
			return ClaimResult{
				Name:    "Premature-debit degradation",
				LHS:     relaxed.Name(),
				RHS:     "SpuriousAccount",
				Compare: automaton.Compare(relaxed.Compiled(), specs.SpuriousAccount(), alphabet, b.MaxLen),
			}
		},
	)
}

// CheckAllTaxiEquivalences runs the four lattice-element equivalences
// of Section 3.3 (one per subset of {Q₁, Q₂}).
func CheckAllTaxiEquivalences(b Bound) []ClaimResult {
	return checkConcurrently(
		func() ClaimResult { return CheckOneCopySerializability(b) },
		func() ClaimResult { return CheckTheorem4(b) },
		func() ClaimResult { return CheckOutOfOrderClaim(b) },
		func() ClaimResult { return CheckDegenerateClaim(b) },
	)
}

// checkConcurrently runs independent claim checks, one goroutine each,
// and returns their results in argument order. The exploration engine
// is serial, so this is where a group of claims gets its parallelism;
// results do not depend on the schedule. A check's panic (the engine
// panics on count overflow) is re-raised on the caller's goroutine, the
// first in argument order, so callers that recover still can.
func checkConcurrently(checks ...func() ClaimResult) []ClaimResult {
	out := make([]ClaimResult, len(checks))
	panics := make([]any, len(checks))
	var wg sync.WaitGroup
	for i, check := range checks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			out[i] = check()
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return out
}
