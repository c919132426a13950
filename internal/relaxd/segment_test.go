package relaxd

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"relaxlattice/internal/quorum"
)

// The segmented-WAL battery: rotation geometry, the torture cases
// replayed across a segment boundary, the compaction-soundness
// property (compacting at any published snapshot never changes the
// recovered state), and the group-commit durability contract under
// concurrent waiters.

// segmentsOnDisk lists the segment indexes present in dir.
func segmentsOnDisk(t *testing.T, dir string) []int {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func TestSegmentRotationReopen(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := OpenStore(dir, StoreOptions{SegmentRecords: 4})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	entries := serialPQEntries(11)
	for _, e := range entries {
		if err := appendDurable(s, e); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// 11 records at 4 per segment: wal-000000..wal-000002 (4+4+3).
	if got := segmentsOnDisk(t, dir); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("segments on disk: %v, want [0 1 2]", got)
	}

	s2, log, info, err := OpenStore(dir, StoreOptions{SegmentRecords: 4})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if info.Segments != 3 || info.CompactedThrough != 0 {
		t.Fatalf("info = %+v, want 3 segments compacted through 0", info)
	}
	if info.WALEntries != len(entries) || info.RepairedBytes != 0 {
		t.Fatalf("info = %+v, want %d clean WAL entries", info, len(entries))
	}
	if !log.Equal(quorum.LogOf(entries...)) {
		t.Fatalf("reopened log diverges:\n got %s\nwant %s", log, quorum.LogOf(entries...))
	}
	// Appending after reopen continues the active segment.
	next := quorum.Entry{TS: ts(100, 6), Op: entries[0].Op}
	if err := appendDurable(s2, next); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if got := segmentsOnDisk(t, dir); len(got) != 4 {
		t.Fatalf("after one more append: segments %v, want rotation to 4 segments", got)
	}
}

func TestSnapshotCompactsSealedSegments(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := OpenStore(dir, StoreOptions{SegmentRecords: 3})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	entries := serialPQEntries(10)
	for _, e := range entries {
		if err := appendDurable(s, e); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Snapshot(quorum.LogOf(entries...)); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	segs := segmentsOnDisk(t, dir)
	if len(segs) != 1 {
		t.Fatalf("after compaction: segments %v, want exactly one fresh segment", segs)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, log, info, err := OpenStore(dir, StoreOptions{SegmentRecords: 3})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if info.SnapshotEntries != len(entries) || info.WALEntries != 0 {
		t.Fatalf("info = %+v, want all %d entries in the snapshot", info, len(entries))
	}
	if info.CompactedThrough != segs[0] || info.Segments != 1 {
		t.Fatalf("info = %+v, want compacted through %d", info, segs[0])
	}
	if !log.Equal(quorum.LogOf(entries...)) {
		t.Fatalf("post-compaction log diverges")
	}
}

// TestActiveSegmentReservation pins the reservation's contract: from
// its first append on, the active segment is a walChunk multiple, so
// appends inside the chunk leave its size alone; a sealed segment, and
// the active one after Close, is exactly its header and records.
func TestActiveSegmentReservation(t *testing.T) {
	dir := t.TempDir()
	size := func(seg int) int64 {
		t.Helper()
		st, err := os.Stat(filepath.Join(dir, segName(seg)))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	trimmed := func(entries []quorum.Entry) int64 {
		t.Helper()
		n := int64(headerLen)
		for _, e := range entries {
			rec, err := appendRecord(nil, e)
			if err != nil {
				t.Fatal(err)
			}
			n += int64(len(rec))
		}
		return n
	}
	s, _, _, err := OpenStore(dir, StoreOptions{SegmentRecords: 6})
	if err != nil {
		t.Fatal(err)
	}
	entries := serialPQEntries(209)
	if got := size(0); got != headerLen {
		t.Fatalf("fresh segment is %d bytes, want %d", got, headerLen)
	}
	for i, e := range entries[:5] {
		if err := appendDurable(s, e); err != nil {
			t.Fatal(err)
		}
		if got := size(0); got != walChunk {
			t.Fatalf("after append %d the active segment is %d bytes, want %d", i, got, walChunk)
		}
	}
	// The sixth record rotates: segment 0 is sealed, trimmed.
	if err := appendDurable(s, entries[5]); err != nil {
		t.Fatal(err)
	}
	if got, want := size(0), trimmed(entries[:6]); got != want {
		t.Fatalf("sealed segment is %d bytes, want %d", got, want)
	}
	if err := appendDurable(s, entries[6]); err != nil {
		t.Fatal(err)
	}
	if got := size(1); got != walChunk {
		t.Fatalf("next segment is %d bytes after an append, want %d", got, walChunk)
	}
	// A seal with every record already durable (a join's) trims too.
	if _, err := s.seal(); err != nil {
		t.Fatal(err)
	}
	if got, want := size(1), trimmed(entries[6:7]); got != want {
		t.Fatalf("segment sealed with nothing to flush is %d bytes, want %d", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A batch that crosses the reserved end extends by whole chunks.
	s, _, _, err = OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBatch(entries[7:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want := trimmed(entries[7:])
	if got := size(2); got != (want+walChunk-1)/walChunk*walChunk || got <= walChunk {
		t.Fatalf("after a %d-byte batch the active segment is %d bytes", want-headerLen, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := size(2); got != want {
		t.Fatalf("closed active segment is %d bytes, want %d", got, want)
	}
	s, log, info, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if info.RepairedBytes != 0 || !log.Equal(quorum.LogOf(entries...)) {
		t.Fatalf("reopen: %+v, %d of %d entries", info, log.Len(), len(entries))
	}
}

// TestCompactionSoundnessAtEveryPoint is the compaction-soundness
// property: for every prefix point k of a history, a store that
// published (and compacted at) a snapshot of the first k entries
// recovers exactly the same log as a store that never compacted.
func TestCompactionSoundnessAtEveryPoint(t *testing.T) {
	entries := serialPQEntries(14)
	for k := 0; k <= len(entries); k++ {
		plainDir, compDir := t.TempDir(), t.TempDir()
		opts := StoreOptions{SegmentRecords: 3}

		plain, _, _, err := OpenStore(plainDir, opts)
		if err != nil {
			t.Fatalf("k=%d: OpenStore plain: %v", k, err)
		}
		comp, _, _, err := OpenStore(compDir, opts)
		if err != nil {
			t.Fatalf("k=%d: OpenStore comp: %v", k, err)
		}
		for i, e := range entries {
			if err := appendDurable(plain, e); err != nil {
				t.Fatalf("k=%d: plain append %d: %v", k, i, err)
			}
			if err := appendDurable(comp, e); err != nil {
				t.Fatalf("k=%d: comp append %d: %v", k, i, err)
			}
			if i+1 == k {
				if err := comp.Snapshot(quorum.LogOf(entries[:k]...)); err != nil {
					t.Fatalf("k=%d: snapshot: %v", k, err)
				}
			}
		}
		if err := plain.Close(); err != nil {
			t.Fatalf("k=%d: plain close: %v", k, err)
		}
		if err := comp.Close(); err != nil {
			t.Fatalf("k=%d: comp close: %v", k, err)
		}

		_, plainLog, _, err := OpenStore(plainDir, opts)
		if err != nil {
			t.Fatalf("k=%d: reopen plain: %v", k, err)
		}
		_, compLog, info, err := OpenStore(compDir, opts)
		if err != nil {
			t.Fatalf("k=%d: reopen comp: %v", k, err)
		}
		if !plainLog.Equal(compLog) {
			t.Fatalf("k=%d: compaction changed the recovered state:\nplain %s\n comp %s", k, plainLog, compLog)
		}
		if k > 0 && info.SnapshotEntries != k {
			t.Fatalf("k=%d: reopened snapshot holds %d entries", k, info.SnapshotEntries)
		}
	}
}

// TestWALTortureTruncateAcrossSegmentBoundary replays the truncation
// torture at every byte offset of the *active* segment of a
// multi-segment store: recovery repairs the torn tail and keeps every
// sealed segment's records.
func TestWALTortureTruncateAcrossSegmentBoundary(t *testing.T) {
	entries := serialPQEntries(11)
	const sealedRecords = 9 // rotation at every 3rd record: 3 sealed segments, 2 records active
	dir := t.TempDir()
	s, _, _, err := OpenStore(dir, StoreOptions{SegmentRecords: 3})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	for _, e := range entries {
		if err := appendDurable(s, e); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs := segmentsOnDisk(t, dir)
	active := filepath.Join(dir, segName(segs[len(segs)-1]))
	img, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int{headerLen}
	for _, e := range entries[sealedRecords:] {
		rec, err := appendRecord(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, bounds[len(bounds)-1]+len(rec))
	}
	if bounds[len(bounds)-1] != len(img) {
		t.Fatalf("active segment is %d bytes, bounds end at %d", len(img), bounds[len(bounds)-1])
	}

	for o := 0; o <= len(img); o++ {
		caseDir := t.TempDir()
		copyStore(t, dir, caseDir)
		if err := os.WriteFile(filepath.Join(caseDir, segName(segs[len(segs)-1])), img[:o], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, log, info, err := OpenStore(caseDir, StoreOptions{SegmentRecords: 3})
		if err != nil {
			t.Fatalf("truncate active at %d: open refused a torn tail: %v", o, err)
		}
		want := sealedRecords + completeRecords(bounds, o)
		requireCertifiedPrefix(t, log, entries, want)
		// Below headerLen the whole torn header counts as repaired.
		wantRepaired := o
		if o >= headerLen {
			wantRepaired = o - bounds[completeRecords(bounds, o)]
		}
		if info.RepairedBytes != wantRepaired {
			t.Fatalf("truncate at %d: repaired %d bytes, want %d", o, info.RepairedBytes, wantRepaired)
		}
		requireUsable(t, s2, log, entries)
	}
}

// TestWALTortureSealedSegmentRefuses damages each sealed segment —
// truncation, zero fill, and a CRC bit flip on its final record — and
// requires the typed refusal: rotation fsyncs a segment fully before
// sealing it, so damage there is never explicable as a torn write.
func TestWALTortureSealedSegmentRefuses(t *testing.T) {
	entries := serialPQEntries(10)
	dir := t.TempDir()
	s, _, _, err := OpenStore(dir, StoreOptions{SegmentRecords: 3})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	for _, e := range entries {
		if err := appendDurable(s, e); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs := segmentsOnDisk(t, dir)
	for _, sealed := range segs[:len(segs)-1] {
		path := filepath.Join(dir, segName(sealed))
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mutations := map[string][]byte{
			"truncated": img[:len(img)-3],
			"zero-tail": append(append([]byte(nil), img[:len(img)-5]...), 0, 0, 0, 0, 0),
			"bit-flip":  flipByte(img, headerLen+4),
		}
		for name, mut := range mutations {
			caseDir := t.TempDir()
			copyStore(t, dir, caseDir)
			if err := os.WriteFile(filepath.Join(caseDir, segName(sealed)), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, _, err := OpenStore(caseDir, StoreOptions{SegmentRecords: 3})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("sealed segment %d %s: got %v, want ErrCorrupt", sealed, name, err)
			}
		}
	}
	// A gap in the segment sequence is the same refusal.
	caseDir := t.TempDir()
	copyStore(t, dir, caseDir)
	if err := os.Remove(filepath.Join(caseDir, segName(segs[1]))); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenStore(caseDir, StoreOptions{SegmentRecords: 3}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("segment gap: got %v, want ErrCorrupt", err)
	}
}

// TestGroupCommitConcurrentWaiters drives concurrent append+wait
// cycles through one store — the pipelined path — and checks the
// durability contract: every waited-on batch survives a reopen.
func TestGroupCommitConcurrentWaiters(t *testing.T) {
	dir := t.TempDir()
	s, _, _, err := OpenStore(dir, StoreOptions{SegmentRecords: 16})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	entries := serialPQEntries(96)
	const workers = 8
	var (
		mu   sync.Mutex // the single-writer serialization the Replica provides
		next int
		wg   sync.WaitGroup
		errs = make(chan error, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(entries) {
					mu.Unlock()
					return
				}
				batch := entries[next:min(next+3, len(entries))]
				next += len(batch)
				target, err := s.AppendBatch(batch)
				mu.Unlock()
				if err != nil {
					errs <- err
					return
				}
				if err := s.WaitDurable(target); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append: %v", err)
	}
	// No Close, no final Sync: WaitDurable already promised durability.
	s.wal.Close()
	_, log, _, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !log.Equal(quorum.LogOf(entries...)) {
		t.Fatalf("reopen lost waited-on records: got %d entries, want %d", log.Len(), len(entries))
	}
}

// copyStore clones a store directory file by file.
func copyStore(t *testing.T, from, to string) {
	t.Helper()
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		data, err := os.ReadFile(filepath.Join(from, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// flipByte returns a copy of img with one bit flipped at off.
func flipByte(img []byte, off int) []byte {
	mut := append([]byte(nil), img...)
	mut[off] ^= 1
	return mut
}
