package relaxd

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
)

// serialPQEntries builds n entries forming a legal serial priority-queue
// history (so any prefix certifies at the top of the taxi lattice).
func serialPQEntries(n int) []quorum.Entry {
	entries := make([]quorum.Entry, 0, n)
	var held []int // multiset of enqueued-but-not-dequeued elements
	next := 1
	for i := 0; i < n; i++ {
		var op history.Op
		// Deterministic mix: two enqueues, then a dequeue of the max.
		if i%3 == 2 && len(held) > 0 {
			max, at := held[0], 0
			for j, v := range held {
				if v > max {
					max, at = v, j
				}
			}
			held = append(held[:at], held[at+1:]...)
			op = history.DeqOk(max)
		} else {
			// Elements cycle through 1..9 so repeats occur.
			e := next%9 + 1
			next++
			held = append(held, e)
			op = history.Enq(e)
		}
		entries = append(entries, quorum.Entry{TS: ts(i+1, 6), Op: op})
	}
	return entries
}

// appendDurable commits one record the way Replica.applyAppend does:
// stage it, then wait for the fsync that covers it.
func appendDurable(s *Store, e quorum.Entry) error {
	seq, err := s.AppendBatch([]quorum.Entry{e})
	if err != nil {
		return err
	}
	return s.WaitDurable(seq)
}

func TestStoreAppendReopen(t *testing.T) {
	dir := t.TempDir()
	s, log, info, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore fresh: %v", err)
	}
	if log.Len() != 0 || info.SnapshotEntries != 0 || info.WALEntries != 0 || info.RepairedBytes != 0 {
		t.Fatalf("fresh store not empty: log=%d info=%+v", log.Len(), info)
	}
	entries := serialPQEntries(17)
	for _, e := range entries {
		if err := appendDurable(s, e); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, log2, info2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore reopen: %v", err)
	}
	defer s2.Close()
	if info2.WALEntries != len(entries) || info2.RepairedBytes != 0 {
		t.Fatalf("reopen info %+v, want %d WAL entries and no repair", info2, len(entries))
	}
	if !log2.Equal(quorum.LogOf(entries...)) {
		t.Fatalf("recovered log differs:\n got %s\nwant %s", log2, quorum.LogOf(entries...))
	}
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	entries := serialPQEntries(12)
	for _, e := range entries[:8] {
		if err := appendDurable(s, e); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Snapshot(quorum.LogOf(entries[:8]...)); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Snapshot resets the WAL; post-snapshot appends land there.
	for _, e := range entries[8:] {
		if err := appendDurable(s, e); err != nil {
			t.Fatalf("Append after snapshot: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, log, info, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if info.SnapshotEntries != 8 || info.WALEntries != 4 {
		t.Fatalf("recovery info %+v, want 8 snapshot + 4 WAL entries", info)
	}
	if !log.Equal(quorum.LogOf(entries...)) {
		t.Fatalf("recovered log differs after snapshot:\n got %s\nwant %s", log, quorum.LogOf(entries...))
	}
}

func TestOpenStoreDiscardsLeftoverSnapshotTmp(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	entries := serialPQEntries(5)
	for _, e := range entries {
		if err := appendDurable(s, e); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A crash mid-snapshot leaves snap.tmp but never the renamed snap;
	// the WAL still holds everything.
	if err := os.WriteFile(filepath.Join(dir, "snap.tmp"), []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, log, _, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen with leftover snap.tmp: %v", err)
	}
	defer s2.Close()
	if !log.Equal(quorum.LogOf(entries...)) {
		t.Fatalf("log lost entries after snap.tmp cleanup")
	}
	if _, err := os.Stat(filepath.Join(dir, "snap.tmp")); !os.IsNotExist(err) {
		t.Fatalf("snap.tmp not removed: %v", err)
	}
}

func TestOpenStoreRefusesDamagedSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	entries := serialPQEntries(6)
	for _, e := range entries {
		if err := appendDurable(s, e); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Snapshot(quorum.LogOf(entries...)); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap := filepath.Join(dir, "snap")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots publish atomically, so any damage is real corruption,
	// never a torn write: flip a payload byte.
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenStore(dir, StoreOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged snapshot: got %v, want ErrCorrupt", err)
	}
}

// TestOpenStoreRefusesLegacyWAL: a pre-segmentation store kept its log
// in one file named "wal". Opening it must refuse, not come back empty.
func TestOpenStoreRefusesLegacyWAL(t *testing.T) {
	img, _ := walImage(t, serialPQEntries(4))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal"), img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenStore(dir, StoreOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("legacy wal: got %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(0))); !os.IsNotExist(err) {
		t.Fatalf("refused open created %s (stat err %v)", segName(0), err)
	}
}

func TestOpenStoreRefusesForeignWAL(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenStore(dir, StoreOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign WAL: got %v, want ErrCorrupt", err)
	}
}

// testdata/store-v1 is a store an earlier build wrote: 25 entries of
// serialPQEntries, a published snapshot of 20 and 5 WAL records over
// two segments, compacted through segment 6. The store's bytes are a
// contract, so it opens to the same log and the same RecoveryInfo.
func TestStoreImageOpensUnchanged(t *testing.T) {
	dir := t.TempDir()
	copyStore(t, filepath.Join("testdata", "store-v1"), dir)
	s, log, info, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := RecoveryInfo{SnapshotEntries: 20, WALEntries: 5, Segments: 2, CompactedThrough: 6}
	if info != want {
		t.Fatalf("recovered %+v, want %+v", info, want)
	}
	entries := serialPQEntries(26)
	if !log.Equal(quorum.LogOf(entries[:25]...)) {
		t.Fatalf("recovered log %s", log)
	}
	// The image was written with no fill; it still takes an append.
	if err := appendDurable(s, entries[25]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, log, info, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	want.WALEntries = 6
	if info != want || !log.Equal(quorum.LogOf(entries...)) {
		t.Fatalf("after an append: recovered %+v, want %+v; log %s", info, want, log)
	}
}

// A crash leaves the active segment's fill on disk. A restart reads it
// as the store's reservation: the same log, nothing repaired.
func TestCrashRestartReadsFillAsFill(t *testing.T) {
	r, _, err := OpenReplica(0, t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, e := range serialPQEntries(7) {
		if err := ackOne(r, e); err != nil {
			t.Fatal(err)
		}
	}
	want := r.Log()
	r.Crash()
	info, err := r.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if info.RepairedBytes != 0 || info.WALEntries != want.Len() {
		t.Fatalf("restart after a crash: %+v, want %d WAL entries and no repair", info, want.Len())
	}
	if !r.Log().Equal(want) {
		t.Fatalf("restart recovered %s, want %s", r.Log(), want)
	}
}

// A cold open parses each distinct op text once across the snapshot
// and every segment, so a 2 000-record store opens in far fewer
// allocations than it has records.
func TestOpenStoreParsesEachTextOnce(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := OpenStore(dir, StoreOptions{SegmentRecords: 300})
	if err != nil {
		t.Fatal(err)
	}
	entries := serialPQEntries(2000)
	for _, e := range entries[:1500] {
		if err := appendDurable(s, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(quorum.LogOf(entries[:1500]...)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBatch(entries[1500:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(3, func() {
		s, log, info, err := OpenStore(dir, StoreOptions{})
		if err != nil || log.Len() != len(entries) || info.WALEntries != 500 {
			t.Fatalf("reopened %d entries (%+v): %v", log.Len(), info, err)
		}
		s.Close()
	})
	if n > float64(len(entries)/4) {
		t.Fatalf("opening %d records took %v allocations", len(entries), n)
	}
}

// TestFailedWriteIsSticky pins that a WAL write error poisons the
// store. A short write moves the file offset past a partial record; a
// later batch written after it would be fsynced and acked, and the next
// OpenStore would refuse the segment. Swapping the active segment for a
// read-only handle of the same file makes the write fail (EBADF).
func TestFailedWriteIsSticky(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	entries := serialPQEntries(5)
	for _, e := range entries[:2] {
		if err := appendDurable(s, e); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Written, not yet durable: its fsync is still to come.
	pending, err := s.AppendBatch(entries[2:3])
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}

	good := s.wal
	ro, err := os.Open(good.Name())
	if err != nil {
		t.Fatal(err)
	}
	s.wal = ro
	_, werr := s.AppendBatch(entries[3:4])
	s.wal = good
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if werr == nil {
		t.Fatal("AppendBatch to a read-only segment succeeded")
	}
	// The segment is writable again, but the store stays poisoned.
	if _, err := s.AppendBatch(entries[4:]); !errors.Is(err, werr) {
		t.Fatalf("AppendBatch after a failed write = %v, want the write's error %v", err, werr)
	}
	if err := s.WaitDurable(pending); !errors.Is(err, werr) {
		t.Fatalf("WaitDurable after a failed write = %v, want the write's error %v", err, werr)
	}
	if err := s.Close(); !errors.Is(err, werr) {
		t.Fatalf("Close after a failed write = %v, want the write's error %v", err, werr)
	}

	s2, log, info, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen after a failed write: %v", err)
	}
	defer s2.Close()
	// The acked entries and the written one; neither refused one.
	if want := quorum.LogOf(entries[:3]...); !log.Equal(want) || info.RepairedBytes != 0 {
		t.Fatalf("reopened log %s (repaired %d bytes), want %s", log, info.RepairedBytes, want)
	}
}
