package relaxcheck

import (
	"math/rand"
	"testing"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/value"
)

// BenchmarkAuditObserve measures the steady-state per-op cost of the
// online checker the audit sidecar replays through.
func BenchmarkAuditObserve(b *testing.B) {
	lat, opts := spoolOpts()
	c := New(lat, opts)
	events := genEvents(7, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applyEvent(c, events[i%len(events)])
	}
}

// pqHistory32k is a seeded legal priority-queue history of 32 000
// operations, 55 % Enq(1..9) / 45 % Deq (a Deq drawn on an empty queue
// is redrawn) — the shape of the state a wiped relaxd site is shipped.
func pqHistory32k() history.History {
	return pqHistory(rand.New(rand.NewSource(7)), 32000)
}

// pqHistory draws a legal priority-queue history of n operations in
// pqHistory32k's mix.
func pqHistory(rng *rand.Rand, n int) history.History {
	q := value.EmptyBag()
	h := make(history.History, 0, n)
	for len(h) < cap(h) {
		if best, ok := q.Best(); ok && rng.Intn(100) < 45 {
			q = q.Del(best)
			h = append(h, history.DeqOk(int(best)))
			continue
		}
		e := rng.Intn(9) + 1
		q = q.Ins(value.Elem(e))
		h = append(h, history.Enq(e))
	}
	return h
}

// BenchmarkCertify32k is the certification a snapshot-shipping join
// pays before install (relaxd.PQCertify): the whole shipped history
// through the up-set of the Q1Q2 claim, which in the taxi lattice is
// the priority queue alone (DESIGN.md §11). Its one state is stepped
// in place, so allocations per run stay constant in the history's
// length.
func BenchmarkCertify32k(b *testing.B) {
	lat := core.TaxiSimpleLattice()
	h := pqHistory32k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := Certify(lat, nil, "Q1Q2", h); v != nil {
			b.Fatal(v)
		}
	}
}

// BenchmarkObserve32k is the live audit over the same history: every
// operation through New's checker on the full taxi lattice. This is
// the benchmark that steps the degenerate queue's never-shrinking bag
// and the MPQ, and the one that notices per-operation allocation on
// the serving path.
func BenchmarkObserve32k(b *testing.B) {
	lat := core.TaxiSimpleLattice()
	h := pqHistory32k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(lat, Options{Claims: TaxiClaims(lat.Universe, cluster.TaxiLadder(5))})
		for _, op := range h {
			c.ObserveOp(op)
		}
		if v := c.Violation(); v != nil {
			b.Fatal(v)
		}
	}
}
