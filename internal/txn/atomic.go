package txn

import (
	"fmt"

	"relaxlattice/internal/automaton"
	"relaxlattice/internal/history"
)

// maxPermutationTxns bounds the factorial search in Serializable.
const maxPermutationTxns = 8

// SerializableInOrder reports whether concatenating the per-transaction
// projections in the given order yields a history of a (Definition 5
// with the order fixed).
func SerializableInOrder(s Schedule, a automaton.Automaton, order []ID) bool {
	var h history.History
	for _, t := range order {
		h = append(h, s.Proj(t)...)
	}
	return automaton.Accepts(a, h)
}

// Serializable reports Definition 5: some total order on the
// transactions of s serializes it against a. It panics beyond
// maxPermutationTxns transactions (the factorial search is meant for
// bounded checking).
func Serializable(s Schedule, a automaton.Automaton) bool {
	txns := s.Txns()
	if len(txns) > maxPermutationTxns {
		panic(fmt.Sprintf("txn: Serializable over %d transactions (max %d)", len(txns), maxPermutationTxns))
	}
	found := false
	permute(txns, func(order []ID) bool {
		if SerializableInOrder(s, a, order) {
			found = true
			return false
		}
		return true
	})
	return found
}

// Atomic reports Definition 6: perm(s) is serializable.
//
//lint:ignore unreached Definition 6 oracle: integration's tests check pessimistic schedules against it
func Atomic(s Schedule, a automaton.Automaton) bool {
	return Serializable(s.Perm(), a)
}

// HybridAtomic reports the hybrid-atomicity property of Section 4.1:
// committed transactions serialize in the order they committed. The
// paper cites strict two-phase locking as a mechanism that guarantees
// it; here it is the property our queue runtimes are verified against.
func HybridAtomic(s Schedule, a automaton.Automaton) bool {
	return SerializableInOrder(s.Perm(), a, s.Committed())
}

// permute calls visit with each permutation of ids; visit returning
// false stops the enumeration.
func permute(ids []ID, visit func([]ID) bool) {
	buf := append([]ID(nil), ids...)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(buf) {
			return visit(buf)
		}
		for i := k; i < len(buf); i++ {
			buf[k], buf[i] = buf[i], buf[k]
			if !rec(k + 1) {
				return false
			}
			buf[k], buf[i] = buf[i], buf[k]
		}
		return true
	}
	rec(0)
}
