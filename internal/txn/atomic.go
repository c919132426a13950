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
func Atomic(s Schedule, a automaton.Automaton) bool {
	return Serializable(s.Perm(), a)
}

// OnlineAtomic reports Definition 7: appending commits for any subset
// of active transactions leaves the schedule atomic. (Commit order
// within the appended subset does not matter for Definition 6, which
// existentially quantifies the serialization order.)
func OnlineAtomic(s Schedule, a automaton.Automaton) bool {
	if !s.WellFormed() {
		return false
	}
	active := s.Active()
	if len(active) > 16 {
		panic(fmt.Sprintf("txn: OnlineAtomic over %d active transactions", len(active)))
	}
	for mask := 0; mask < 1<<uint(len(active)); mask++ {
		ext := s
		for i, t := range active {
			if mask&(1<<uint(i)) != 0 {
				ext = ext.Append(Commit(t))
			}
		}
		if !Atomic(ext, a) {
			return false
		}
	}
	return true
}

// HybridAtomic reports the hybrid-atomicity property of Section 4.1:
// committed transactions serialize in the order they committed. The
// paper cites strict two-phase locking as a mechanism that guarantees
// it; here it is the property our queue runtimes are verified against.
func HybridAtomic(s Schedule, a automaton.Automaton) bool {
	return SerializableInOrder(s.Perm(), a, s.Committed())
}

// OnlineHybridAtomic checks hybrid atomicity for every possible future:
// every permutation of every subset of active transactions, appended as
// commits, leaves the schedule hybrid atomic.
func OnlineHybridAtomic(s Schedule, a automaton.Automaton) bool {
	if !s.WellFormed() {
		return false
	}
	active := s.Active()
	if len(active) > maxPermutationTxns {
		panic(fmt.Sprintf("txn: OnlineHybridAtomic over %d active transactions", len(active)))
	}
	ok := true
	subsets(active, func(subset []ID) bool {
		permute(subset, func(order []ID) bool {
			ext := s
			for _, t := range order {
				ext = ext.Append(Commit(t))
			}
			if !HybridAtomic(ext, a) {
				ok = false
				return false
			}
			return true
		})
		return ok
	})
	return ok
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

// subsets calls visit with each subset of ids; visit returning false
// stops the enumeration.
func subsets(ids []ID, visit func([]ID) bool) {
	for mask := 0; mask < 1<<uint(len(ids)); mask++ {
		var sub []ID
		for i, t := range ids {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, t)
			}
		}
		if !visit(sub) {
			return
		}
	}
}
