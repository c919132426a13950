package value

import (
	"fmt"
	"strconv"
)

// MPQ is the state of the multi-priority queue automaton (Figure 3-3):
// a record of [present: Q, absent: Q] where present holds requests that
// have been enqueued but not dequeued and absent holds requests that
// have already been dequeued at least once.
type MPQ struct {
	Present Bag
	Absent  Bag
}

// EmptyMPQ returns the initial multi-priority-queue value.
func EmptyMPQ() MPQ { return MPQ{} }

// Clone returns a copy of m that shares nothing with it: its Present
// and Absent bags may be updated in place.
func (m MPQ) Clone() MPQ { return MPQ{Present: m.Present.Clone(), Absent: m.Absent.Clone()} }

// Key returns the canonical encoding.
func (m MPQ) Key() string { return "MPQ{p:" + m.Present.Key() + ",a:" + m.Absent.Key() + "}" }

// String renders the record.
func (m MPQ) String() string {
	return fmt.Sprintf("[present: %s, absent: %s]", m.Present, m.Absent)
}

// StutQ is the state of the stuttering queue automaton (Figure 4-3): a
// record of [items: Q, count: Int], where count is the number of times
// the current front item has been returned by Deq so far.
type StutQ struct {
	Items Seq
	Count int
}

// EmptyStutQ returns the initial stuttering-queue value.
func EmptyStutQ() StutQ { return StutQ{} }

// Key returns the canonical encoding.
func (s StutQ) Key() string { return "StQ{" + s.Items.Key() + ",c:" + strconv.Itoa(s.Count) + "}" }

// String renders the record.
func (s StutQ) String() string {
	return fmt.Sprintf("[items: %s, count: %d]", s.Items, s.Count)
}

// SSQ is the state of the combined semiqueue/stuttering queue
// SSqueue_jk (Section 4.2.2): any of the first k items may be returned
// as many as j times. Counts tracks, per position of Items, how many
// times that item has been returned so far. SSqueue_11 is the FIFO
// queue.
type SSQ struct {
	Items  Seq
	Counts []int // aligned with Items; counts of returns so far
}

// EmptySSQ returns the initial combined-queue value.
func EmptySSQ() SSQ { return SSQ{} }

// Ins appends an item with a zero return count.
func (s SSQ) Ins(e Elem) SSQ {
	return SSQ{Items: s.Items.Ins(e), Counts: append(append([]int(nil), s.Counts...), 0)}
}

// Stutter returns s with the count at position i incremented.
func (s SSQ) Stutter(i int) SSQ {
	counts := append([]int(nil), s.Counts...)
	counts[i]++
	return SSQ{Items: s.Items, Counts: counts}
}

// Remove returns s with the item at position i removed.
func (s SSQ) Remove(i int) SSQ {
	counts := make([]int, 0, len(s.Counts)-1)
	counts = append(counts, s.Counts[:i]...)
	counts = append(counts, s.Counts[i+1:]...)
	return SSQ{Items: s.Items.DelAt(i), Counts: counts}
}

// Key returns the canonical encoding.
func (s SSQ) Key() string {
	k := "SSQ{" + s.Items.Key() + ",c["
	for i, c := range s.Counts {
		if i > 0 {
			k += " "
		}
		k += strconv.Itoa(c)
	}
	return k + "]}"
}

// String renders the record.
func (s SSQ) String() string {
	return fmt.Sprintf("[items: %s, counts: %v]", s.Items, s.Counts)
}

// Account is the state of the bank-account data type of Section 3.4:
// a non-negative balance manipulated by Credit and Debit, where Debit
// raises an exception rather than overdraw.
type Account struct {
	Balance int
}

// NewAccount returns an account with the given opening balance.
func NewAccount(balance int) Account { return Account{Balance: balance} }

// Key returns the canonical encoding.
func (a Account) Key() string { return "Acct{" + strconv.Itoa(a.Balance) + "}" }

// String renders the account.
func (a Account) String() string { return fmt.Sprintf("[balance: %d]", a.Balance) }
