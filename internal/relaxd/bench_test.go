package relaxd

import (
	"sync"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
)

// The pipelining benchmarks: single-record commit (one fsync per
// record) against the group-commit path (many writers share one fsync
// window via AppendBatch + WaitDurable). `make bench` prints both
// appends/sec metrics; DESIGN.md §15 cites the pipelined number as at
// least 2× the single-commit one.

// benchEntry builds the i-th distinct benchmark entry.
func benchEntry(i int) quorum.Entry {
	return quorum.Entry{TS: ts(i+1, 6), Op: history.Enq(i%9 + 1)}
}

// BenchmarkAppendSingleCommit is the baseline: every append is its own
// durable commit — one fsync per record, nothing to share it with.
func BenchmarkAppendSingleCommit(b *testing.B) {
	s, _, _, err := OpenStore(b.TempDir(), StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := appendDurable(s, benchEntry(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "appends/sec")
}

// BenchmarkAppendPipelined is the group-commit discipline: concurrent
// writers append under the writer mutex and then wait for durability
// outside it, so one elected fsync covers every record that landed in
// the window. Durability per record is identical to single-commit —
// WaitDurable returns only once the record is on disk.
func BenchmarkAppendPipelined(b *testing.B) {
	s, _, _, err := OpenStore(b.TempDir(), StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var (
		mu   sync.Mutex
		next int
	)
	// Many concurrent clients per core: the group-commit window only
	// fills when writers outnumber the fsync in flight.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			i := next
			next++
			target, err := s.AppendBatch([]quorum.Entry{benchEntry(i)})
			mu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
			if err := s.WaitDurable(target); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "appends/sec")
}

// BenchmarkRecovery measures a cold OpenStore over a store of 5k
// records spread across segments — the wall-clock a restarted site
// pays before it can serve.
func BenchmarkRecovery(b *testing.B) {
	const records = 5000
	dir := b.TempDir()
	s, _, _, err := OpenStore(dir, StoreOptions{SegmentRecords: 1024})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := appendDurable(s, benchEntry(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, log, info, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if log.Len() != records || info.RepairedBytes != 0 {
			b.Fatalf("recovered %d entries (info %+v), want %d clean", log.Len(), info, records)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "recovery-ms")
}
