package relaxd

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"relaxlattice/internal/quorum"
)

// Store file layout (DESIGN.md §15 has the byte diagram):
//
//	wal-NNNNNN: [8-byte magic "rlxwal1\n"] record* [zero fill: active segment only]
//	snap:       [8-byte magic "rlxsnp1\n"] [4-byte BE count] record*
//
//	record: [4-byte BE payload len][4-byte BE CRC32-IEEE(payload)][payload]
//	payload: one log entry (appendEntry encoding), 1..maxRecord bytes
//
// The WAL is a sequence of append-only segments named wal-000000,
// wal-000001, … with contiguous indexes. Exactly one — the highest —
// is active; rotation trims the active segment to its records, fsyncs
// it, creates the next (magic written and fsynced, directory fsynced),
// and seals the old one, so every non-final segment is fully durable,
// and exactly as long as its records, by construction.
//
// From its first append on, the active segment's size is kept ahead of
// its records, rounded up to a walChunk multiple with zero fill, so an
// append overwrites bytes the file already has and the fsync that makes
// it durable commits no size change. Zeros after the last record of a
// chunk-aligned active segment are that reservation, not a torn write.
// Close trims the fill.
//
// Compaction (Snapshot) seals — rotates, so every record below the new
// segment is durable and in the log being published — then publishes
// the snapshot and deletes the segments below the seal oldest-first, so
// a crash at any point leaves a contiguous segment suffix whose merge
// with the published snapshot is the same log.
//
// The snapshot is written to snap.tmp, fsynced, and atomically renamed
// over snap (then the directory is fsynced), so a reader never observes
// a half-published snapshot. Every payload carries its own CRC; a
// zero-length record is invalid by construction, which keeps a
// zero-filled tail (CRC32("")==0) from decoding as a valid empty
// record.
const (
	walMagic  = "rlxwal1\n"
	snapMagic = "rlxsnp1\n"
	headerLen = 8
	recHdrLen = 8
	maxRecord = MaxFrame

	segPrefix = "wal-"
	segDigits = 6

	// walChunk is the step the active segment's reservation grows by:
	// one filesystem block.
	walChunk = 4096
)

// ErrCorrupt is the store's typed refusal: the on-disk state is
// damaged in a way that truncated-tail repair cannot explain (a bad
// record with intact data after it, damage inside a sealed segment, a
// mangled snapshot, a foreign header). Open never silently drops
// interior data — it either recovers a prefix that a torn final write
// explains, or returns an error wrapping ErrCorrupt.
var ErrCorrupt = errors.New("relaxd: corrupt store")

// StoreOptions tunes segment geometry.
type StoreOptions struct {
	// SegmentRecords, when positive, rotates the active WAL segment
	// after it holds that many records. 0 keeps a single unbounded
	// segment (compaction still rotates on every snapshot).
	SegmentRecords int
}

// RecoveryInfo reports what OpenStore found.
type RecoveryInfo struct {
	// SnapshotEntries is the number of entries loaded from the
	// published snapshot (0 when none exists).
	SnapshotEntries int
	// WALEntries is the number of entries replayed from the WAL
	// segments.
	WALEntries int
	// RepairedBytes is how many trailing bytes of the active segment
	// were discarded as a torn final write (0 on a clean open; the
	// store's own zero fill is not counted).
	RepairedBytes int
	// Segments is how many WAL segments the store found.
	Segments int
	// CompactedThrough is the index of the oldest segment present —
	// every lower-indexed segment has been compacted into the
	// published snapshot.
	CompactedThrough int
}

// Store is one site's durable log: segmented write-ahead log plus a
// periodically published snapshot. Writes (AppendBatch, seal, Snapshot,
// Close) are single-writer — the owning Replica serializes
// them behind its own mutex — but WaitDurable and Sync are safe to
// call concurrently with each other and with the writer: concurrent
// waiters share fsyncs (group commit), which is what lets pipelined
// appends from many connections ride one fsync window. A publish
// touches no writer state, so it may run concurrently with the writer,
// one publish at a time.
type Store struct {
	dir  string
	opts StoreOptions
	buf  []byte // scratch for record encoding (writer-only)
	// inc is this opening's incarnation: 64 random bits, never 0. The
	// owning replica serves entries it has merged but not yet made
	// durable, so the log it serves after a reopen need not contain the
	// one it served before; the incarnation is how a client can tell.
	inc uint64

	// Writer state, guarded by the owner's serialization (the Replica
	// mutex), not by a Store lock.
	wal        *os.File // active segment
	walSize    int64    // bytes of header and records in the active segment
	reserved   int64    // the active segment's file size, ≥ walSize
	segIndex   int      // index of the active segment
	segRecords int      // records in the active segment

	// Publisher state, touched only by the one publish in flight (the
	// owning Replica runs at most one, and a join's stage and commit
	// only while none runs), never by the writer.
	firstSeg int          // oldest segment on disk (compaction floor)
	hooks    publishHooks // test-only kill points; nil in production

	// Commit state, shared between the writer and concurrent
	// WaitDurable callers. Guarded by cmu.
	cmu      sync.Mutex
	ccond    *sync.Cond
	syncFile *os.File // active segment, as the fsyncing side sees it
	seq      int64    // records written (commit sequence numbers 1..seq)
	durable  int64    // highest commit sequence known fsynced
	syncing  bool     // an fsync is in flight
	syncErr  error    // sticky: first fsync failure poisons the store
}

// segName formats a segment file name.
func segName(i int) string {
	return fmt.Sprintf("%s%0*d", segPrefix, segDigits, i)
}

// parseSegName extracts a segment index, or ok=false for other files.
func parseSegName(name string) (int, bool) {
	if !strings.HasPrefix(name, segPrefix) {
		return 0, false
	}
	d := name[len(segPrefix):]
	if len(d) < segDigits {
		return 0, false
	}
	n, err := strconv.Atoi(d)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// listSegments returns the sorted segment indexes present in dir. A
// file named "wal" is the pre-segmentation layout, which is refused
// rather than ignored: ignoring it would open an empty log.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, de := range ents {
		if de.Name() == "wal" {
			return nil, fmt.Errorf("%s: %w: pre-segmentation wal layout is not supported",
				filepath.Join(dir, "wal"), ErrCorrupt)
		}
		if i, ok := parseSegName(de.Name()); ok {
			segs = append(segs, i)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// OpenStore opens (creating if absent) the site store in dir and
// recovers its log: the published snapshot, if any, merged with every
// record of every WAL segment that passes validation. Only the active
// (highest-indexed) segment may carry a torn final write — truncated
// record, zero-filled tail, or a corrupt last record — which is
// repaired by truncating back to its last valid record; zeros after
// the last record of a chunk-aligned active segment are the store's own
// reservation, kept and not counted as repaired. Rotation seals
// segments trimmed and fully fsynced, so damage in a sealed segment, a
// gap in the segment index sequence, or a damaged snapshot refuses with
// an error wrapping ErrCorrupt.
func OpenStore(dir string, opts StoreOptions) (*Store, quorum.Log, RecoveryInfo, error) {
	var info RecoveryInfo
	fail := func(err error) (*Store, quorum.Log, RecoveryInfo, error) {
		return nil, quorum.Log{}, info, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	// A leftover snap.tmp is a snapshot that never published.
	if err := discardStaged(dir); err != nil {
		return fail(err)
	}

	// One op table serves the whole open: a log repeats a handful of
	// op texts, so each is parsed once, not once per record.
	ops := make(opTable)
	snapLog, snapN, err := readSnapshot(filepath.Join(dir, "snap"), ops)
	if err != nil {
		return fail(err)
	}
	info.SnapshotEntries = snapN

	segs, err := listSegments(dir)
	if err != nil {
		return fail(err)
	}
	if len(segs) == 0 {
		segs = []int{0}
		f, err := createSegment(dir, 0)
		if err != nil {
			return fail(err)
		}
		f.Close()
	}
	for i := 1; i < len(segs); i++ {
		if segs[i] != segs[i-1]+1 {
			return fail(fmt.Errorf("%w: WAL segment gap: %s then %s",
				ErrCorrupt, segName(segs[i-1]), segName(segs[i])))
		}
	}
	info.Segments = len(segs)
	info.CompactedThrough = segs[0]

	var entries []quorum.Entry
	var lastGood, lastLen, lastRecords int
	var lastFill bool
	for k, idx := range segs {
		path := filepath.Join(dir, segName(idx))
		data, err := os.ReadFile(path)
		if err != nil {
			return fail(err)
		}
		segEntries, goodLen, rerr := recoverWAL(data, ops)
		if rerr != nil {
			return fail(fmt.Errorf("%s: %w", path, rerr))
		}
		if k < len(segs)-1 {
			// Sealed segment: rotation fsyncs it fully before the next
			// segment exists, so any torn tail here is real damage.
			if goodLen != len(data) || goodLen < headerLen {
				return fail(fmt.Errorf("%s: %w: torn tail in sealed segment (%d of %d bytes valid)",
					path, ErrCorrupt, goodLen, len(data)))
			}
		} else {
			lastGood = goodLen
			lastLen = len(data)
			lastRecords = len(segEntries)
			// Zeros after the last record of a chunk-aligned active
			// segment are the store's own reservation.
			lastFill = lastLen%walChunk == 0 && zeroFilled(data[goodLen:])
		}
		entries = append(entries, segEntries...)
	}
	info.WALEntries = len(entries)
	if !lastFill {
		info.RepairedBytes = lastLen - lastGood
	}

	inc, err := newIncarnation()
	if err != nil {
		return fail(err)
	}
	active := filepath.Join(dir, segName(segs[len(segs)-1]))
	f, err := os.OpenFile(active, os.O_RDWR, 0o644)
	if err != nil {
		return fail(err)
	}
	s := &Store{
		dir:        dir,
		opts:       opts,
		inc:        inc,
		wal:        f,
		segIndex:   segs[len(segs)-1],
		segRecords: lastRecords,
		firstSeg:   segs[0],
		syncFile:   f,
	}
	s.ccond = sync.NewCond(&s.cmu)
	if lastGood < headerLen {
		// Fresh or torn-at-creation segment: (re)write the header.
		if err := s.resetWAL(); err != nil {
			f.Close()
			return fail(err)
		}
	} else if lastGood < lastLen && !lastFill {
		// Torn final write: discard the tail.
		if err := f.Truncate(int64(lastGood)); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fail(err)
		}
		s.walSize = int64(lastGood)
		s.reserved = s.walSize
	} else {
		s.walSize = int64(lastGood)
		s.reserved = int64(lastLen)
	}
	if _, err := f.Seek(s.walSize, 0); err != nil {
		f.Close()
		return fail(err)
	}
	return s, quorum.Merge(snapLog, quorum.Adopt(entries)), info, nil
}

// newIncarnation draws 64 random bits, never 0 (the wire's "none").
func newIncarnation() (uint64, error) {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			return 0, fmt.Errorf("relaxd: drawing a store incarnation: %w", err)
		}
		if inc := binary.BigEndian.Uint64(b[:]); inc != 0 {
			return inc, nil
		}
	}
}

// createSegment creates an empty segment file (magic written, file and
// directory fsynced) and returns it open for appending.
func createSegment(dir string, idx int) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, segName(idx)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteString(walMagic); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// recoverWAL validates a raw WAL segment image (header + records). It
// returns the decoded entries of every valid record and the byte
// length of the valid prefix. goodLen < len(data) means a torn tail
// was identified and should be truncated; goodLen < headerLen means
// the header itself must be rewritten. An inconsistency that a torn
// final write cannot explain returns an error wrapping ErrCorrupt.
func recoverWAL(data []byte, ops opTable) (entries []quorum.Entry, goodLen int, err error) {
	if len(data) < headerLen {
		// Nothing, or a torn header write: repairable iff the bytes are
		// a prefix of the magic (the only thing ever written first).
		if bytes.Equal(data, []byte(walMagic)[:len(data)]) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("%w: %d-byte file is not a WAL prefix", ErrCorrupt, len(data))
	}
	if string(data[:headerLen]) != walMagic {
		return nil, 0, fmt.Errorf("%w: bad WAL magic %q", ErrCorrupt, data[:headerLen])
	}
	o := headerLen
	for o < len(data) {
		e, n, ok, err := readRecord(data[o:], ops)
		if err != nil {
			return nil, 0, fmt.Errorf("%w at offset %d", err, o)
		}
		if !ok {
			// Structurally broken or CRC-failed record. A torn final
			// write explains it only if nothing meaningful follows:
			// either the breakage runs to EOF as the last record, or
			// the rest of the file is zero fill (preallocated blocks).
			if torn(data[o:], n) {
				return entries, o, nil
			}
			return nil, 0, fmt.Errorf("%w: bad record at offset %d with %d live bytes after it",
				ErrCorrupt, o, len(data)-o)
		}
		entries = append(entries, e)
		o += n
	}
	return entries, o, nil
}

// readRecord parses one record off the front of b. ok=false with
// n=the structural length means the record is complete but fails
// validation (CRC or payload decode); ok=false with n=0 means the
// record is structurally incomplete or its header is implausible.
// A non-nil error is returned only for payload bytes whose CRC passes
// but which do not decode — that is never a torn write.
func readRecord(b []byte, ops opTable) (e quorum.Entry, n int, ok bool, err error) {
	if len(b) < recHdrLen {
		return quorum.Entry{}, 0, false, nil
	}
	l := binary.BigEndian.Uint32(b[:4])
	if l == 0 || l > maxRecord {
		return quorum.Entry{}, 0, false, nil
	}
	if recHdrLen+int(l) > len(b) {
		return quorum.Entry{}, 0, false, nil
	}
	n = recHdrLen + int(l)
	payload := b[recHdrLen:n]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(b[4:8]) {
		return quorum.Entry{}, n, false, nil
	}
	rest, derr := decodeEntry(&e, payload, ops)
	if derr != nil || len(rest) != 0 {
		return quorum.Entry{}, 0, false,
			fmt.Errorf("%w: record passes CRC but does not decode", ErrCorrupt)
	}
	return e, n, true, nil
}

// torn reports whether a validation failure at the start of b is
// explicable as a torn final write. n is readRecord's structural
// length (0 when the record was structurally incomplete or its header
// implausible). The cases:
//
//   - a CRC-failed but structurally complete record (n > 0) is torn
//     iff it runs to EOF or everything after it is zero fill;
//   - a tail shorter than one record header is always torn;
//   - an implausible length field (0 or > maxRecord) is torn only when
//     the whole remainder is zero fill — records are written in one
//     contiguous write, so a torn write leaves a *prefix*, and a
//     prefix of ≥ 4 bytes carries the true length; live garbage there
//     is corruption;
//   - a plausible length extending past EOF is a torn payload.
func torn(b []byte, n int) bool {
	if n > 0 {
		return n >= len(b) || zeroFilled(b[n:])
	}
	if len(b) < recHdrLen {
		return true
	}
	l := binary.BigEndian.Uint32(b[:4])
	if l == 0 || l > maxRecord {
		return zeroFilled(b)
	}
	return true
}

// zeroFilled reports whether every byte of b is zero.
func zeroFilled(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// appendRecord encodes one record (header + entry payload) onto b.
func appendRecord(b []byte, e quorum.Entry) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	b, err := appendEntry(b, e)
	if err != nil {
		return nil, err
	}
	payload := b[start+recHdrLen:]
	if len(payload) > maxRecord {
		return nil, fmt.Errorf("%w: %d-byte record", ErrFrame, len(payload))
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b, nil
}

// AppendBatch writes entries to the active segment in one contiguous
// write — no fsync — and returns the batch's commit sequence. The
// records are durable once WaitDurable(seq) returns: the pipelined
// path writes under the owner's lock, releases it, and then waits for
// a group fsync to cover the batch, so concurrent batches from many
// connections share fsyncs. An empty batch returns the current commit
// sequence (already durable or in flight).
//
// Writer-only: the owning Replica's mutex serializes writers.
func (s *Store) AppendBatch(entries []quorum.Entry) (int64, error) {
	if len(entries) == 0 {
		s.cmu.Lock()
		defer s.cmu.Unlock()
		return s.seq, nil
	}
	b := s.buf[:0]
	var err error
	for _, e := range entries {
		b, err = appendRecord(b, e)
		if err != nil {
			return 0, err
		}
	}
	s.buf = b[:0]
	// Keep the size ahead of the records: a write that would cross the
	// reserved end first extends it by whole chunks, so every other
	// append overwrites and its fsync commits no size change. The fsync
	// that covers this batch commits the extension too.
	if end := s.walSize + int64(len(b)); end > s.reserved {
		end = (end + walChunk - 1) / walChunk * walChunk
		if err := s.wal.Truncate(end); err != nil {
			return 0, err
		}
		s.reserved = end
	}
	if _, err := s.wal.Write(b); err != nil {
		return 0, err
	}
	s.walSize += int64(len(b))
	s.segRecords += len(entries)
	s.cmu.Lock()
	s.seq += int64(len(entries))
	target := s.seq
	s.cmu.Unlock()
	if s.opts.SegmentRecords > 0 && s.segRecords >= s.opts.SegmentRecords {
		if err := s.rotate(); err != nil {
			return 0, err
		}
	}
	return target, nil
}

// WaitDurable blocks until every record with commit sequence ≤ target
// is stable — fsynced in a WAL segment or covered by a published
// snapshot (compaction only deletes segments whose records the fsynced
// snapshot holds, and rotation syncs before sealing, so `durable` only
// ever advances over stable records). Concurrent callers elect one
// fsyncer at a time; everyone whose target the in-flight fsync covers
// shares it (group commit). An fsync failure is sticky: the store is
// poisoned and every waiter fails.
func (s *Store) WaitDurable(target int64) error {
	return s.waitDurable(target, false)
}

// waitDurable is WaitDurable; own further demands an fsync that starts
// after the call, which commits a size change even when every record
// is already durable.
func (s *Store) waitDurable(target int64, own bool) error {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	for own || s.durable < target {
		if s.syncErr != nil {
			return s.syncErr
		}
		if s.syncing {
			s.ccond.Wait()
			continue
		}
		own = false
		s.syncing = true
		f := s.syncFile
		covered := s.seq
		s.cmu.Unlock()
		err := f.Sync()
		// Reacquire cmu after the fsync; the deferred Unlock releases the
		// final hold.
		s.cmu.Lock()
		s.syncing = false
		if err != nil {
			if s.syncErr == nil {
				s.syncErr = err
			}
		} else if covered > s.durable {
			s.durable = covered
		}
		s.ccond.Broadcast()
	}
	return nil
}

// Sync flushes every written record, and the active segment's size,
// to stable storage. It always fsyncs, even when every record is
// already durable, so a trim before it is committed.
func (s *Store) Sync() error {
	s.cmu.Lock()
	target := s.seq
	s.cmu.Unlock()
	return s.waitDurable(target, true)
}

// trim cuts the active segment's fill, so its length is its records'.
// The caller's Sync commits it.
//
// Writer-only: the owning Replica's mutex serializes writers.
func (s *Store) trim() error {
	if s.reserved == s.walSize {
		return nil
	}
	if err := s.wal.Truncate(s.walSize); err != nil {
		return err
	}
	s.reserved = s.walSize
	return nil
}

// rotate seals the active segment and opens the next one. The trim and
// Sync run first, so the sealed segment is exactly its records, fully
// durable, and no WaitDurable caller can still need an fsync of the old
// file (their targets are all ≤ the now-durable sequence).
//
// Writer-only: the owning Replica's mutex serializes writers.
func (s *Store) rotate() error {
	if err := s.trim(); err != nil {
		return err
	}
	if err := s.Sync(); err != nil {
		return err
	}
	f, err := createSegment(s.dir, s.segIndex+1)
	if err != nil {
		return err
	}
	old := s.wal
	s.cmu.Lock()
	s.syncFile = f
	s.cmu.Unlock()
	s.wal = f
	s.walSize = headerLen
	s.reserved = headerLen
	s.segIndex++
	s.segRecords = 0
	return old.Close()
}

// Snapshot publishes the given log as the site's snapshot and compacts
// the segments it covers: seal, then publish, in line. l must hold
// every record the WAL holds. The publish is atomic, and compaction at
// a published snapshot never changes the recovered state: Merge
// deduplicates by timestamp, so the snapshot plus any suffix of the
// old segments recovers the same log as the snapshot alone.
func (s *Store) Snapshot(l quorum.Log) error {
	seal, err := s.seal()
	if err != nil {
		return err
	}
	return s.publish(l, seal)
}

// seal is the half of a snapshot that needs the writer: it syncs the
// active segment and rotates to a fresh one, and returns the fresh
// segment's index. Every record in a segment below it is then durable,
// so a log captured under the same lock as the seal holds all of them.
// An active segment that holds no record is already that fresh
// segment: createSegment synced its file and directory entry (or
// OpenStore found it on disk), and the rotation that created it synced
// every record below it. Rotating again would only add an empty
// segment and its fsyncs.
func (s *Store) seal() (int, error) {
	if s.segRecords == 0 {
		return s.segIndex, nil
	}
	if err := s.rotate(); err != nil {
		return 0, err
	}
	return s.segIndex, nil
}

// publishHooks are test-only kill points between the steps of a
// publish, in the shape of JoinHooks. Returning an error abandons the
// publish at that step, as a kill there would.
type publishHooks struct {
	afterTmpWrite func() error
	afterTmpSync  func() error
	afterRename   func() error
	afterRemove   func(seg int) error
}

// runHook runs an optional hook.
func runHook(h func() error) error {
	if h == nil {
		return nil
	}
	return h()
}

// publish is the half of a snapshot that needs no writer state, so it
// can run while appends continue: stage, then commit. seal must come
// from a seal made no later than l was captured, so that l holds every
// record the segments below it hold. A failed publish compacts nothing
// it has not already made redundant.
func (s *Store) publish(l quorum.Log, seal int) error {
	if err := s.stage(l); err != nil {
		return err
	}
	return s.commit(seal)
}

// stage writes l to snap.tmp and fsyncs it. Nothing a reopen reads
// changes until commit renames it; discardStaged, or the next open,
// removes an uncommitted one.
func (s *Store) stage(l quorum.Log) error {
	b := make([]byte, 0, headerLen+4+l.Len()*32)
	b = append(b, snapMagic...)
	b = binary.BigEndian.AppendUint32(b, uint32(l.Len()))
	for i := 0; i < l.Len(); i++ {
		var err error
		b, err = appendRecord(b, l.Entry(i))
		if err != nil {
			return err
		}
	}
	tmp := filepath.Join(s.dir, "snap.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := runHook(s.hooks.afterTmpWrite); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return runHook(s.hooks.afterTmpSync)
}

// discardStaged removes a snapshot staged in dir that will not be
// committed; the WAL and the published snapshot still hold everything
// it held.
func discardStaged(dir string) error {
	if err := os.Remove(filepath.Join(dir, "snap.tmp")); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// commit publishes the staged snapshot: snap.tmp is renamed over snap
// and the directory fsynced; only then are the segments below seal
// deleted, oldest first, and the directory fsynced again.
func (s *Store) commit(seal int) error {
	if err := os.Rename(filepath.Join(s.dir, "snap.tmp"), filepath.Join(s.dir, "snap")); err != nil {
		return err
	}
	if err := runHook(s.hooks.afterRename); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	for s.firstSeg < seal {
		if err := os.Remove(filepath.Join(s.dir, segName(s.firstSeg))); err != nil {
			return err
		}
		s.firstSeg++
		if h := s.hooks.afterRemove; h != nil {
			if err := h(s.firstSeg - 1); err != nil {
				return err
			}
		}
	}
	return syncDir(s.dir)
}

// resetWAL truncates the active segment to a fresh header.
//
// Writer-only: the owning Replica's mutex serializes writers.
func (s *Store) resetWAL() error {
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return err
	}
	if _, err := s.wal.WriteString(walMagic); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.walSize = headerLen
	s.reserved = headerLen
	s.segRecords = 0
	return nil
}

// Close trims the active segment's fill, flushes, and closes the WAL,
// so a clean shutdown leaves every segment exactly its records.
//
// Writer-only: the owning Replica's mutex serializes writers.
func (s *Store) Close() error {
	err := s.trim()
	if err == nil {
		err = s.Sync()
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// readSnapshot loads and validates the published snapshot. A missing
// snapshot is an empty log; anything structurally wrong is ErrCorrupt
// (snapshots publish atomically, so damage is never a torn write).
func readSnapshot(path string, ops opTable) (quorum.Log, int, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return quorum.Log{}, 0, nil
	}
	if err != nil {
		return quorum.Log{}, 0, err
	}
	if len(data) < headerLen+4 || string(data[:headerLen]) != snapMagic {
		return quorum.Log{}, 0, fmt.Errorf("%s: %w: bad snapshot header", path, ErrCorrupt)
	}
	count := binary.BigEndian.Uint32(data[headerLen : headerLen+4])
	b := data[headerLen+4:]
	if uint64(count) > uint64(len(b)/recHdrLen+1) {
		return quorum.Log{}, 0, fmt.Errorf("%s: %w: %d entries declared in %d bytes", path, ErrCorrupt, count, len(b))
	}
	entries := make([]quorum.Entry, 0, count)
	for i := uint32(0); i < count; i++ {
		e, n, ok, err := readRecord(b, ops)
		if err != nil || !ok {
			return quorum.Log{}, 0, fmt.Errorf("%s: %w: bad snapshot record %d", path, ErrCorrupt, i)
		}
		entries = append(entries, e)
		b = b[n:]
	}
	if len(b) != 0 {
		return quorum.Log{}, 0, fmt.Errorf("%s: %w: %d trailing snapshot bytes", path, ErrCorrupt, len(b))
	}
	return quorum.Adopt(entries), len(entries), nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
