package quorum

import (
	"math/rand"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/value"
)

// pqLog32k is a seeded legal priority-queue log of 32 000 entries,
// 55 % Enq(1..9) / 45 % Deq (a Deq drawn on an empty queue is redrawn).
func pqLog32k() Log {
	rng := rand.New(rand.NewSource(7))
	q := value.EmptyBag()
	var l Log
	for l.Len() < 32000 {
		var op history.Op
		if best, ok := q.Best(); ok && rng.Intn(100) < 45 {
			q, op = q.Del(best), history.DeqOk(int(best))
		} else {
			e := rng.Intn(9) + 1
			q, op = q.Ins(value.Elem(e)), history.Enq(e)
		}
		l = l.Append(Entry{TS: Timestamp{Time: l.Len() + 1, Site: 9}, Op: op})
	}
	return l
}

var sinkStates []value.Value

// BenchmarkPQFoldEvalLog32k is η over a cold 32 000-entry view: what a
// client with an empty view cache pays once, and the per-entry cost the
// cache saves on every later operation.
func BenchmarkPQFoldEvalLog32k(b *testing.B) {
	l := pqLog32k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkStates = PQFold().EvalLog(l)
	}
}
