package main

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// benchCases are the structures the throughput sweep compares: each
// relaxed structure next to the mutex-guarded strict baseline it is
// claimed against. Journals are nil — the sweep measures the
// structures, and certification runs measure the recorder separately
// (BenchmarkConcRecorded). Lane-structured queues get one lane per
// worker.
func benchCases() []struct {
	name string
	mk   func(w int) RelaxedQueue
} {
	return []struct {
		name string
		mk   func(w int) RelaxedQueue
	}{
		{"strict", func(w int) RelaxedQueue { return NewStrict(nil) }},
		{"seg-k16", func(w int) RelaxedQueue { return NewSegQueue(16, w, nil) }},
		{"seg-k64", func(w int) RelaxedQueue { return NewSegQueue(64, w, nil) }},
		{"dup", func(w int) RelaxedQueue { return NewDupQueue(nil) }},
		{"strictpq", func(w int) RelaxedQueue { return NewStrictPQ(nil) }},
		{"lanepq-b8", func(w int) RelaxedQueue { return NewLanePQ(w, 8, nil) }},
	}
}

// benchWorkers is the goroutine sweep: the scalability curve's x axis.
var benchWorkers = []int{1, 2, 4, 8}

// benchBurst is each worker's opening enqueue run: it builds a small
// standing backlog so dequeue batching operates at its design point
// rather than chasing an always-near-empty structure. It stays below
// the smallest lane capacity so a lone producer never waits.
const benchBurst = 64

// runThroughput drives w goroutines through b.N operations — an
// opening enqueue burst, then alternating Enq/Deq pairs — and reports
// aggregate ops/sec, each worker through its own handles. GOMAXPROCS
// is raised to w for the duration so the contention being measured is
// real parallel contention, not an artifact of a single-P run queue.
func runThroughput(b *testing.B, q RelaxedQueue, w int) {
	prev := runtime.GOMAXPROCS(w)
	defer runtime.GOMAXPROCS(prev)
	per := b.N/w + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int, enq Enqueuer, deq Dequeuer) {
			defer wg.Done()
			base := g * per
			for i := 0; i < per; i++ {
				if i < benchBurst || i&1 == 0 {
					enq.Enq(base + i)
				} else {
					deq.Deq()
				}
			}
		}(g, q.NewEnqueuer(), q.NewDequeuer())
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(per*w)/b.Elapsed().Seconds(), "ops/sec")
}

// BenchmarkConc is the scalability sweep, one curve per structure:
// names are BenchmarkConc/q=<structure>/w=<goroutines>, and the
// ops/sec metric is the aggregate throughput across all w goroutines.
func BenchmarkConc(b *testing.B) {
	for _, w := range benchWorkers {
		for _, c := range benchCases() {
			b.Run(fmt.Sprintf("q=%s/w=%d", c.name, w), func(b *testing.B) {
				runThroughput(b, c.mk(w), w)
			})
		}
	}
}

// pqDeepPrefill is the standing backlog of the deep-regime priority
// benchmark: the overload condition the paper's degradation story
// targets, where a strict heap's per-operation sift depth (and cache
// footprint) grows with the backlog while the lane PQ's claim cost
// does not.
const pqDeepPrefill = 1 << 18

// BenchmarkConcPQDeep compares the priority structures under a deep
// standing backlog. The lane PQ is prefilled through dedicated
// handles (its producer lanes are single-writer), so it gets w extra
// lanes to hold the backlog.
func BenchmarkConcPQDeep(b *testing.B) {
	w := benchWorkers[len(benchWorkers)-1]
	cases := []struct {
		name string
		mk   func() RelaxedQueue
	}{
		{"strictpq", func() RelaxedQueue {
			q := NewStrictPQ(nil)
			for i := 0; i < pqDeepPrefill; i++ {
				q.Enq(int(splitmix64(uint64(i))) & 1023)
			}
			return q
		}},
		{"lanepq-b8", func() RelaxedQueue {
			q := NewLanePQ(2*w, 8, nil)
			for g := 0; g < w; g++ {
				e := q.NewEnqueuer()
				for i := 0; i < pqDeepPrefill/w; i++ {
					e.Enq(int(splitmix64(uint64(g*pqDeepPrefill+i))) & 1023)
				}
			}
			return q
		}},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("q=%s/w=%d", c.name, w), func(b *testing.B) {
			runThroughput(b, c.mk(), w)
		})
	}
}

// BenchmarkConcRecorded measures the recorder tax: the k=64 segment
// queue with every operation journaled, against its unrecorded numbers
// in BenchmarkConc. The journal is sized to the run so nothing drops.
func BenchmarkConcRecorded(b *testing.B) {
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("q=seg-k64/w=%d", w), func(b *testing.B) {
			j := NewJournal(b.N + benchWorkers[len(benchWorkers)-1] + 1)
			runThroughput(b, NewSegQueue(64, w, j), w)
		})
	}
}

// BenchmarkConcCertify measures the certification side: feeding a
// recorded history through the online checker at the honest rung.
func BenchmarkConcCertify(b *testing.B) {
	const ops = 2000
	j := NewJournal(ops)
	q := NewSegQueue(64, 5, j)
	RunWorkload(q, 4, ops/4)
	h := j.History()
	claim := q.Claim()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := certify(claim, h, 4); v != nil {
			b.Fatalf("violation during bench: %v", v)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(h)*b.N)/b.Elapsed().Seconds(), "ops/sec")
}
