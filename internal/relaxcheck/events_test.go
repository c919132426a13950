package relaxcheck

import (
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/sim"
)

// auditEvent is one input to the checker: exactly one of op (an
// observed operation) or claim (a degradation claim) is set.
type auditEvent struct {
	op    history.Op
	claim string
}

// genEvents derives a deterministic audit-event stream from a seed:
// a spooler-style enqueue/dequeue mix with out-of-order dequeues (to
// move the level), interleaved C_k claims (to move the claim floor),
// and a rare dequeue of a never-enqueued element (to exhaust the
// lattice). Every behavior the checker can exhibit is reachable.
func genEvents(seed int64, n int) []auditEvent {
	g := sim.NewRNG(seed)
	var pending []int
	next := 1
	evs := make([]auditEvent, 0, n)
	for len(evs) < n {
		switch {
		case g.Bool(0.12):
			evs = append(evs, auditEvent{claim: core.ConstraintCk(1 + g.Intn(3))})
		case g.Bool(0.02):
			evs = append(evs, auditEvent{op: history.DeqOk(9999)}) // poison: in no element's language
		case len(pending) == 0 || g.Bool(0.55):
			pending = append(pending, next)
			evs = append(evs, auditEvent{op: history.Enq(next)})
			next++
		default:
			idx := 0
			if len(pending) > 1 && g.Bool(0.4) {
				idx = g.Intn(len(pending))
			}
			e := pending[idx]
			pending = append(pending[:idx], pending[idx+1:]...)
			evs = append(evs, auditEvent{op: history.DeqOk(e)})
		}
	}
	return evs
}

func applyEvent(c *Checker, ev auditEvent) {
	if ev.claim != "" {
		c.ObserveClaim(0, ev.claim)
	} else {
		c.ObserveOp(ev.op)
	}
}

// spoolOpts is the checker setup the event streams target: the
// 3-dequeuer semiqueue lattice with its C_k claim table, sampling every
// 5 operations.
func spoolOpts() (*lattice.Relaxation, Options) {
	lat := core.SemiqueueLattice(3)
	return lat, Options{Claims: SpoolClaims(lat.Universe), SampleEvery: 5}
}
