package relaxd

import (
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/value"
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

// recoveryEntries is the size of relaxbench's recovery log: a 32 000-
// entry preload plus a 150-entry suffix.
const recoveryEntries = 32150

// pqEntries returns n timestamped entries forming a legal priority-
// queue history, 55 % Enq(1..9) / 45 % Deq of the best element.
func pqEntries(n int) []quorum.Entry {
	rng := rand.New(rand.NewSource(7))
	q := value.EmptyBag()
	entries := make([]quorum.Entry, 0, n)
	for len(entries) < n {
		op := history.Enq(rng.Intn(9) + 1)
		if best, ok := q.Best(); ok && rng.Intn(100) < 45 {
			op = history.DeqOk(int(best))
			q = q.Del(best)
		} else {
			q = q.Ins(value.Elem(op.Args[0]))
		}
		entries = append(entries, quorum.Entry{TS: ts(len(entries)+1, 6), Op: op})
	}
	return entries
}

// appendPieces hands entries to r in 1 000-entry MsgAppend pieces, the
// way relaxbench ships its preload.
func appendPieces(b *testing.B, r *Replica, entries []quorum.Entry) {
	for len(entries) > 0 {
		n := min(len(entries), 1000)
		if resp, err := r.Handle(Message{Type: MsgAppend, Entries: entries[:n]}); err != nil || resp.Type != MsgAck {
			b.Fatalf("append: %+v, %v", resp, err)
		}
		entries = entries[n:]
	}
}

// BenchmarkBulkAppend32k is relaxbench's recovery set-up on one site:
// a durable replica with bench/'s geometry (100-record segments, a
// snapshot due every 200 entries) receives the 32 150-entry preload in
// 1 000-entry pieces. It is timed through Close, so the last publish is
// counted, and reports how many publishes landed per run.
func BenchmarkBulkAppend32k(b *testing.B) {
	entries := pqEntries(recoveryEntries)
	var publishes atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, _, err := OpenReplica(0, b.TempDir(), StoreOptions{SegmentRecords: 100})
		if err != nil {
			b.Fatal(err)
		}
		r.SnapshotEvery = 200
		r.store.hooks.afterRename = func() error {
			publishes.Add(1)
			return nil
		}
		b.StartTimer()
		appendPieces(b, r, entries)
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(publishes.Load())/float64(b.N), "publishes/op")
}

// joinDonor32k opens a durable donor at relaxbench's recovery size: a
// published snapshot of 32 000 entries and a 150-entry WAL suffix.
func joinDonor32k(b *testing.B) *Replica {
	donor, _, err := OpenReplica(0, b.TempDir(), StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { donor.Close() })
	donor.SnapshotEvery = 8000
	entries := pqEntries(recoveryEntries)
	// Publishes coalesce, so the last one could otherwise take in the
	// whole log; the flush leaves the final 150 entries a WAL suffix.
	appendPieces(b, donor, entries[:32000])
	donor.flush()
	appendPieces(b, donor, entries[32000:])
	return donor
}

// benchJoin times joins of a wiped joiner (site 1, storing in dir) over
// tr; the wipe and restart before each join are not timed.
func benchJoin(b *testing.B, joiner *Replica, dir string, tr Transport) {
	cfg := JoinConfig{Transport: tr, Certify: PQCertify()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		joiner.Crash()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		if _, err := joiner.Restart(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		info, err := joiner.JoinFrom(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if got := info.SnapshotEntries + info.WALEntries; got != recoveryEntries || info.WALEntries == 0 {
			b.Fatalf("join shipped %+v, want %d entries with a WAL suffix", info, recoveryEntries)
		}
	}
}

// BenchmarkJoinFrom32k is one wipe-and-rejoin at relaxbench's recovery
// size, end to end over Local's wire round trip: fetch the donor's
// snapshot and WAL suffix, decode them, build the log, certify it with
// PQCertify while it is staged, and publish it as the joiner's snapshot.
// Local encodes the whole stream before decoding it, on one goroutine.
func BenchmarkJoinFrom32k(b *testing.B) {
	donor := joinDonor32k(b)
	dir := b.TempDir()
	joiner, _, err := OpenReplica(1, dir, StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer joiner.Close()
	benchJoin(b, joiner, dir, NewLocal([]*Replica{donor, joiner}))
}

// BenchmarkJoinFrom32kPooled is BenchmarkJoinFrom32k over loopback TCP,
// as relaxbench's recovery rejoins: the donor encodes the stream's
// frames on its connection's handler while the joiner's reader decodes
// the ones already sent.
func BenchmarkJoinFrom32kPooled(b *testing.B) {
	donor := joinDonor32k(b)
	srv, err := ListenSite("127.0.0.1:0", donor)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	dir := b.TempDir()
	joiner, _, err := OpenReplica(1, dir, StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer joiner.Close()
	// The joiner's own slot is never dialed.
	tr := NewPooledTransport([]string{srv.Addr(), "unused"}, 0)
	defer tr.Close()
	benchJoin(b, joiner, dir, tr)
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

// BenchmarkDecodeLog32k decodes one 32 150-entry MsgLog body: once
// with the priority queue's few repeated op texts, once with every text
// distinct (Enq of the entry's index), the traffic an op-text table
// cannot help.
func BenchmarkDecodeLog32k(b *testing.B) {
	distinct := make([]quorum.Entry, recoveryEntries)
	for i := range distinct {
		distinct[i] = quorum.Entry{TS: ts(i+1, 6), Op: history.Enq(i + 1)}
	}
	for _, c := range []struct {
		name    string
		entries []quorum.Entry
	}{{"repeated", pqEntries(recoveryEntries)}, {"distinct", distinct}} {
		body, err := AppendMessage(nil, Message{Type: MsgLog, Entries: c.entries})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m, err := DecodeMessage(body); err != nil || len(m.Entries) != recoveryEntries {
					b.Fatalf("decoded %d entries, %v", len(m.Entries), err)
				}
			}
		})
	}
}
