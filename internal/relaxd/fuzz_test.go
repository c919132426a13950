package relaxd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"relaxlattice/internal/quorum"
)

// FuzzDecodeFrame hardens the wire decoder, both as a frame stream
// (the frame reader a server runs) and as a bare message body
// (DecodeMessage): arbitrary bytes must never panic, never allocate past
// the declared caps, and anything that does decode must re-encode to
// frames that read back to the same correlation id and message (the
// codec is a bijection on its valid range).
func FuzzDecodeFrame(f *testing.F) {
	// One well-formed frame of each message kind, plus hostile shapes.
	for _, m := range fuzzFrameSeeds() {
		var b bytes.Buffer
		if err := writeMessage(to(&b), nil, 7, m); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 7, MsgLog, 0xff})
	// A hostile entry count behind a well-formed incarnation and flags,
	// and a frontier whose count overflows int.
	f.Add(append([]byte{0, 0, 0, 24, 0, 0, 0, 0, 0, 0, 0, 7, MsgLog, 1, 2, 3, 4, 5, 6, 7, 8, 1},
		0xff, 0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Add(append([]byte{0, 0, 0, 29, 0, 0, 0, 0, 0, 0, 0, 7, MsgGetLog, 1, 2, 3, 4, 5, 6, 7, 8},
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 1))
	// A Log streamed one entry a frame.
	var b bytes.Buffer
	old := streamFrameBytes
	streamFrameBytes = 1
	err := writeMessage(to(&b), nil, 7, Message{Type: MsgLog, Inc: 1, Entries: sampleEntries()})
	streamFrameBytes = old
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b.Bytes())

	stable := func(t *testing.T, data []byte, id uint64, m Message) {
		if len(m.Entries)+len(m.Wal) > len(data)/minEntryLen {
			t.Fatalf("decoded %d entries from %d bytes — over-allocation past the cap", len(m.Entries)+len(m.Wal), len(data))
		}
		var b bytes.Buffer
		if err := writeMessage(to(&b), nil, id, m); err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		id2, m2, err := readMessage(&b)
		if err != nil {
			t.Fatalf("re-encoded frames do not decode: %v", err)
		}
		if id2 != id || !sameMessage(m2, m) {
			t.Fatalf("codec not stable: %d %+v vs %d %+v", id, m, id2, m2)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if id, m, err := readMessage(bytes.NewReader(data)); err == nil {
			stable(t, data, id, m)
		}
		if m, err := DecodeMessage(data); err == nil && len(data) <= MaxFrame {
			stable(t, data, 0, m)
		}
	})
}

// sameMessage reports whether a and b carry the same fields and the
// same entries.
func sameMessage(a, b Message) bool {
	same := func(x, y []quorum.Entry) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].TS != y[i].TS || !x[i].Op.Equal(y[i].Op) {
				return false
			}
		}
		return true
	}
	return a.Type == b.Type && a.N == b.N && a.Err == b.Err && a.Inc == b.Inc && a.Have == b.Have &&
		a.Max == b.Max && a.Delta == b.Delta && same(a.Entries, b.Entries) && same(a.Wal, b.Wal)
}

// fuzzFrameSeeds is one well-formed message of each kind and shape:
// the zero and a frontier-bearing GetLog, a whole and a delta Log, a
// tagged and an untagged Append, the stale refusal, and a state that
// fits one frame.
func fuzzFrameSeeds() []Message {
	const inc = 0x0102030405060708
	entries := sampleEntries()
	return []Message{
		{Type: MsgGetLog},
		{Type: MsgGetLog, Inc: inc, Have: 2, Max: entries[1].TS},
		{Type: MsgPing},
		{Type: MsgPong},
		{Type: MsgAck, N: 3},
		{Type: MsgErr, Err: "no"},
		{Type: MsgLog, Inc: inc, Entries: entries},
		{Type: MsgLog, Inc: inc, Delta: true, Entries: entries[2:]},
		{Type: MsgAppend, Entries: entries[:2]},
		{Type: MsgAppend, Inc: inc, Entries: entries[2:]},
		{Type: MsgStale},
		{Type: MsgState, Entries: entries[:3], Wal: entries[3:]},
	}
}

// FuzzStateStream hardens the reading of streams, of all three types
// (MsgState streamed first). An input is a sequence of frame bodies
// under one exchange, each a uvarint length and then that many bytes,
// read to its end by a reader of replies and by a reader of requests.
// Neither panics; each stops at the input's end (io.EOF) or refuses with
// ErrFrame; every message it returns streams out again and reads back
// the same; and its array is never sized past what the entries
// delivered need, what one frame's bytes can hold, or — replies only —
// streamPrealloc (lowered here so every input stays cheap).
func FuzzStateStream(f *testing.F) {
	for _, seed := range stateStreamSeeds(f) {
		f.Add(seed)
	}
	old := streamPrealloc
	streamPrealloc = 64
	f.Cleanup(func() { streamPrealloc = old })
	f.Fuzz(func(t *testing.T, data []byte) {
		var bodies [][]byte
		longest := 0
		for len(data) > 0 {
			n, rest, err := readUvarint(data)
			if err != nil || n > uint64(len(rest)) {
				break
			}
			bodies = append(bodies, rest[:n])
			longest = max(longest, int(n))
			data = rest[n:]
		}
		framed := frameSeq(9, bodies...)
		for _, replies := range []bool{true, false} {
			fr, msgs, err := readFrames(framed, replies)
			if err != io.EOF && !errors.Is(err, ErrFrame) {
				t.Fatalf("replies=%v: refused without ErrFrame: %v", replies, err)
			}
			limit := longest / minEntryLen
			if replies {
				limit = max(limit, streamPrealloc)
			}
			if c := cap(fr.st.entries); c > max(limit, 2*len(fr.st.entries)) {
				t.Fatalf("replies=%v: array sized for %d entries holding %d", replies, c, len(fr.st.entries))
			}
			for _, m := range msgs {
				var b bytes.Buffer
				if err := writeMessage(to(&b), nil, 9, m); err != nil {
					t.Fatalf("a message read does not stream out again: %v", err)
				}
				if _, again, err := readMessage(&b); err != nil || !sameMessage(again, m) {
					t.Fatalf("streamed out again as %+v (%v), was %+v", again, err, m)
				}
			}
		}
	})
}

// stateStreamSeeds are FuzzStateStream inputs: a state streamed one
// entry a frame, the same state in one frame, the empty state, the
// shapes a reader must refuse or wait past, and a log and an append
// streamed one entry a frame, once with another message inside.
func stateStreamSeeds(f *testing.F) [][]byte {
	seq := func(frames ...[]byte) []byte {
		var b []byte
		for _, fr := range frames {
			b = append(binary.AppendUvarint(b, uint64(len(fr))), fr...)
		}
		return b
	}
	entries := sampleEntries()
	state := Message{Type: MsgState, Entries: entries[:2], Wal: entries[2:]}
	log := Message{Type: MsgLog, Inc: 5, Delta: true, Entries: entries}
	whole := streamFrames(f, state)
	old := streamFrameBytes
	streamFrameBytes = 1
	split := streamFrames(f, state)
	logSplit := streamFrames(f, log)
	appendSplit := streamFrames(f, Message{Type: MsgAppend, Inc: 6, Entries: entries})
	streamFrameBytes = old
	return [][]byte{
		seq(split...),
		seq(whole...),
		seq(streamFrames(f, Message{Type: MsgState})...),
		seq(split[0], []byte{msgMore}, split[1]),
		seq(append(split, split[len(split)-1])...),
		seq(split[0], split[len(split)-1]),
		seq(append([]byte{MsgState, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0}, split[1][1:]...)),
		seq(logSplit...),
		seq(appendSplit...),
		seq(streamFrames(f, log)...),
		seq(logSplit[0], []byte{MsgPong}, logSplit[1]),
	}
}

// requireReplayed checks a store opened from the WAL segment images
// segs: WALEntries counts every valid record replayed, and the log is
// those records as a log, the first of any repeated timestamp kept.
func requireReplayed(t *testing.T, log quorum.Log, info RecoveryInfo, segs ...[]byte) {
	t.Helper()
	var records []quorum.Entry
	for _, seg := range segs {
		entries, _, err := recoverWAL(seg, nil)
		if err != nil {
			t.Fatalf("an opened segment does not recover: %v", err)
		}
		records = append(records, entries...)
	}
	if info.WALEntries != len(records) || !log.Equal(quorum.LogOf(records...)) {
		t.Fatalf("recovered log of %d entries, info says %d; the segments hold %d records", log.Len(), info.WALEntries, len(records))
	}
}

// FuzzWALOpen hardens recovery: an arbitrary byte soup as the WAL must
// never panic; it either opens (yielding only CRC-valid records, with a
// second open reporting a clean file) or refuses with ErrCorrupt.
func FuzzWALOpen(f *testing.F) {
	// A clean two-record WAL, then progressively damaged shapes.
	img, _ := fuzzWALSeed(f)
	f.Add(img)
	f.Add(img[:len(img)-3])
	f.Add([]byte(walMagic))
	f.Add([]byte("rlx"))
	f.Add([]byte("not a wal at all"))
	f.Add(append(append([]byte(nil), img...), 0, 0, 0, 0))
	f.Add(append(append([]byte(nil), img...), make([]byte, walChunk-len(img))...)) // records, then the reservation's fill

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, log, info, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open failed without the typed refusal: %v", err)
			}
			return
		}
		requireReplayed(t, log, info, data)
		if err := s.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		// Recovery truncated the torn tail, so a second open is clean
		// and sees the identical log.
		s2, log2, info2, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatalf("second open after repair: %v", err)
		}
		defer s2.Close()
		if info2.RepairedBytes != 0 {
			t.Fatalf("second open repaired %d more bytes", info2.RepairedBytes)
		}
		if !log2.Equal(log) {
			t.Fatalf("recovery not stable:\nfirst  %s\nsecond %s", log, log2)
		}
	})
}

// FuzzSegmentedWALOpen hardens multi-segment recovery: arbitrary byte
// soups as a sealed segment and the active segment must never panic;
// OpenStore either recovers (only CRC-valid records, repair confined to
// the active segment, a second open clean and identical) or refuses
// with ErrCorrupt — sealed segments get no tail repair, so damage there
// is always a refusal, never a silent shortening.
func FuzzSegmentedWALOpen(f *testing.F) {
	// A clean two-segment store (2 records sealed, 1 active), then
	// progressively hostile shapes on either side of the boundary.
	seedDir := f.TempDir()
	s, _, _, err := OpenStore(seedDir, StoreOptions{SegmentRecords: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range serialPQEntries(3) {
		if err := appendDurable(s, e); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	sealed, err := os.ReadFile(filepath.Join(seedDir, segName(0)))
	if err != nil {
		f.Fatal(err)
	}
	active, err := os.ReadFile(filepath.Join(seedDir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed, active)
	f.Add(sealed, active[:len(active)-3]) // torn active tail: repairable
	f.Add(sealed[:len(sealed)-3], active) // torn sealed tail: refusal
	f.Add([]byte(walMagic), []byte(walMagic))
	f.Add(sealed, []byte("not a wal at all"))
	f.Add([]byte("not a wal at all"), active)
	f.Add(append(append([]byte(nil), sealed...), 0, 0, 0, 0), active)

	f.Fuzz(func(t *testing.T, seg0, seg1 []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), seg0, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg1, 0o644); err != nil {
			t.Fatal(err)
		}
		s, log, info, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open failed without the typed refusal: %v", err)
			}
			return
		}
		// The sealed segment is never repaired: every repaired byte must
		// come out of the active segment's image.
		if info.RepairedBytes > len(seg1) {
			t.Fatalf("repaired %d bytes, active segment only holds %d", info.RepairedBytes, len(seg1))
		}
		requireReplayed(t, log, info, seg0, seg1)
		if info.Segments != 2 {
			t.Fatalf("opened %d segments, want 2", info.Segments)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		s2, log2, info2, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatalf("second open after repair: %v", err)
		}
		defer s2.Close()
		if info2.RepairedBytes != 0 {
			t.Fatalf("second open repaired %d more bytes", info2.RepairedBytes)
		}
		if !log2.Equal(log) {
			t.Fatalf("recovery not stable:\nfirst  %s\nsecond %s", log, log2)
		}
	})
}

// fuzzWALSeed builds a clean two-record WAL image.
func fuzzWALSeed(f *testing.F) ([]byte, []quorum.Entry) {
	f.Helper()
	entries := serialPQEntries(2)
	b := []byte(walMagic)
	for _, e := range entries {
		var err error
		b, err = appendRecord(b, e)
		if err != nil {
			f.Fatal(err)
		}
	}
	return b, entries
}
