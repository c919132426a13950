// Package txn implements the atomic-object machinery of Section 4:
// transactional schedules, well-formedness, serializability
// (Definition 5), atomicity (Definition 6), on-line atomicity
// (Definition 7), hybrid atomicity, and the three print-spooler queue
// runtimes of Section 4.2 — blocking FIFO, optimistic (semiqueue), and
// pessimistic (stuttering queue).
package txn

import (
	"fmt"
	"strings"

	"relaxlattice/internal/history"
)

// ID identifies a transaction.
type ID int

// SOp is one step of a schedule: an operation execution ⟨p, P⟩ where p
// is an operation of the underlying automaton, a Commit, or an Abort,
// executed by transaction P.
type SOp struct {
	Txn ID
	Op  history.Op
}

// Commit returns ⟨commit, t⟩.
func Commit(t ID) SOp { return SOp{Txn: t, Op: history.Op{Name: history.NameCommit, Term: history.Ok}} }

// Abort returns ⟨abort, t⟩.
func Abort(t ID) SOp { return SOp{Txn: t, Op: history.Op{Name: history.NameAbort, Term: history.Ok}} }

// Step returns ⟨op, t⟩ for an ordinary operation.
func Step(t ID, op history.Op) SOp { return SOp{Txn: t, Op: op} }

// IsCommit reports whether the step is a commit.
func (s SOp) IsCommit() bool { return s.Op.Name == history.NameCommit }

// IsAbort reports whether the step is an abort.
func (s SOp) IsAbort() bool { return s.Op.Name == history.NameAbort }

// String renders the step as "⟨Enq(1)/Ok(), T2⟩".
func (s SOp) String() string { return fmt.Sprintf("⟨%s, T%d⟩", s.Op, int(s.Txn)) }

// Schedule is a history of transactional steps.
type Schedule []SOp

// Append returns the schedule extended with steps (copying, like
// history.History).
func (s Schedule) Append(steps ...SOp) Schedule {
	out := make(Schedule, 0, len(s)+len(steps))
	out = append(out, s...)
	out = append(out, steps...)
	return out
}

// String renders the schedule.
func (s Schedule) String() string {
	if len(s) == 0 {
		return "Λ"
	}
	parts := make([]string, len(s))
	for i, st := range s {
		parts[i] = st.String()
	}
	return strings.Join(parts, " · ")
}

// Txns returns the transaction identifiers in order of first
// appearance.
func (s Schedule) Txns() []ID {
	seen := map[ID]bool{}
	var out []ID
	for _, st := range s {
		if !seen[st.Txn] {
			seen[st.Txn] = true
			out = append(out, st.Txn)
		}
	}
	return out
}

// Status classifies transactions.
type Status int

// Transaction statuses.
const (
	StatusActive Status = iota + 1
	StatusCommitted
	StatusAborted
)

// StatusOf returns each transaction's status.
func (s Schedule) StatusOf() map[ID]Status {
	out := map[ID]Status{}
	for _, st := range s {
		switch {
		case st.IsCommit():
			out[st.Txn] = StatusCommitted
		case st.IsAbort():
			out[st.Txn] = StatusAborted
		default:
			if _, known := out[st.Txn]; !known {
				out[st.Txn] = StatusActive
			}
		}
	}
	return out
}

// Committed returns the committed transactions in commit order.
func (s Schedule) Committed() []ID {
	var out []ID
	for _, st := range s {
		if st.IsCommit() {
			out = append(out, st.Txn)
		}
	}
	return out
}

// WellFormed reports the two conditions of Section 4.1: no transaction
// both commits and aborts (or commits/aborts twice), and no transaction
// executes anything after its commit or abort.
//
//lint:ignore unreached Section 4.1 check: integration's tests assert every random schedule is well formed
func (s Schedule) WellFormed() bool {
	finished := map[ID]bool{}
	for _, st := range s {
		if finished[st.Txn] {
			return false
		}
		if st.IsCommit() || st.IsAbort() {
			finished[st.Txn] = true
		}
	}
	return true
}

// Proj returns H|P: the history of operations of the base automaton
// executed by transaction p (commit/abort excluded).
func (s Schedule) Proj(p ID) history.History {
	var out history.History
	for _, st := range s {
		if st.Txn == p && !st.IsCommit() && !st.IsAbort() {
			out = append(out, st.Op)
		}
	}
	return out
}

// Perm returns perm(H): the subschedule of operations of committed
// transactions.
func (s Schedule) Perm() Schedule {
	status := s.StatusOf()
	var out Schedule
	for _, st := range s {
		if status[st.Txn] == StatusCommitted {
			out = append(out, st)
		}
	}
	return out
}
