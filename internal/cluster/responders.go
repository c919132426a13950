package cluster

import (
	"relaxlattice/internal/history"
	"relaxlattice/internal/value"
)

// PQResponder responds to priority-queue invocations: Enq echoes Ok,
// and Deq returns the best (highest-priority) element of the view — the
// behavior the evaluation function η of Section 3.3 prescribes ("each
// driver will dequeue the highest-priority request that appears not to
// have been served").
func PQResponder(s value.Value, inv history.Invocation) (history.Op, bool) {
	switch inv.Name {
	case history.NameEnq:
		return inv.WithResponse(history.Ok, nil), true
	case history.NameDeq:
		bag, ok := s.(value.Bag)
		if !ok {
			return history.Op{}, false
		}
		best, nonEmpty := bag.Best()
		if !nonEmpty {
			return history.Op{}, false
		}
		return inv.WithResponse(history.Ok, []int{int(best)}), true
	default:
		return history.Op{}, false
	}
}

// AccountResponder responds to bank-account invocations: Credit echoes
// Ok, and Debit succeeds exactly when the view's balance covers the
// amount, bouncing with Over otherwise (Section 3.4). A debit based on
// a stale view may therefore bounce spuriously — precisely the degraded
// behavior the account's relaxation lattice tolerates.
func AccountResponder(s value.Value, inv history.Invocation) (history.Op, bool) {
	acct, ok := s.(value.Account)
	if !ok {
		return history.Op{}, false
	}
	switch inv.Name {
	case history.NameCredit:
		return inv.WithResponse(history.Ok, nil), true
	case history.NameDebit:
		if len(inv.Args) != 1 {
			return history.Op{}, false
		}
		if inv.Args[0] <= acct.Balance {
			return inv.WithResponse(history.Ok, nil), true
		}
		return inv.WithResponse(history.Over, nil), true
	default:
		return history.Op{}, false
	}
}
