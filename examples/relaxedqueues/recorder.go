package main

import (
	"sync/atomic"

	"relaxlattice/internal/history"
)

// Journal is the linearization-point recorder: a bounded, write-once
// journal that turns a concurrent run into a totally ordered
// history.Op stream. A structure takes a ticket (Tick) at its
// operation's linearization point and publishes the operation under
// that ticket (Record); tickets index slots directly, so publication
// is a single release store with no possibility of two writers
// touching one slot. The journal keeps the first-capacity window of an
// execution; operations ticketed past the capacity are counted in
// Dropped rather than wrapping, because overwriting would leave a
// suffix that no automaton can replay from its initial state.
//
// Soundness of the recorded order: every ticket is taken strictly
// inside its operation's execution interval, so ticket order is a
// legitimate linearization of the run — each operation appears at a
// single point between its invocation and response. The structures
// maintain the one ordering fact certification relies on,
// ticket(Enq(e)) < ticket(Deq(e)): an enqueue ticks before it
// publishes its element and a dequeue ticks only after observing a
// published element. What ticket order does not preserve is each
// structure's internal slot order — a dequeuer that has read its
// element but not yet ticked lets later dequeues tick first. Each
// in-flight dequeuer contributes at most one such held element, so a
// structure whose in-structure reordering window is k lands within a
// k+W window in ticket order for W concurrent dequeuers. The claimed
// lattice elements absorb exactly that bound (see lattice.go); the
// truncated first-capacity window is ticket-prefix-closed (a dequeue's
// ticket always exceeds its enqueue's), so certifying it certifies a
// genuine prefix of the linearized run.
type Journal struct {
	ticket  atomic.Uint64
	dropped atomic.Uint64
	slots   []journalSlot
}

type journalSlot struct {
	// seq is 0 while unpublished and t+1 once op holds ticket t's
	// operation; the store orders after the op write (release).
	seq atomic.Uint64
	op  history.Op
}

// NewJournal returns a recorder keeping the first `capacity` ticketed
// operations.
func NewJournal(capacity int) *Journal {
	return &Journal{slots: make([]journalSlot, capacity)}
}

// Tick claims the next linearization ticket. Call it at the operation's
// linearization point; publish with Record.
func (j *Journal) Tick() uint64 { return j.ticket.Add(1) - 1 }

// Record publishes op as ticket t's operation. Tickets at or past the
// journal's capacity are dropped (and counted); each in-window ticket
// must be recorded exactly once.
func (j *Journal) Record(t uint64, op history.Op) {
	if t >= uint64(len(j.slots)) {
		j.dropped.Add(1)
		return
	}
	s := &j.slots[t]
	s.op = op
	s.seq.Store(t + 1)
}

// History returns the longest contiguous published prefix in ticket
// order. Call it after the run quiesces (all operations returned); an
// in-flight writer truncates the prefix at its unpublished slot rather
// than leaving a gap that would silently reorder the stream.
func (j *Journal) History() history.History {
	n := j.ticket.Load()
	if c := uint64(len(j.slots)); n > c {
		n = c
	}
	h := make(history.History, 0, n)
	for t := uint64(0); t < n; t++ {
		s := &j.slots[t]
		if s.seq.Load() != t+1 {
			break
		}
		h = append(h, s.op)
	}
	return h
}

// Dropped reports how many operations were ticketed past the journal's
// capacity and therefore not recorded.
func (j *Journal) Dropped() uint64 { return j.dropped.Load() }
