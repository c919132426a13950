package relaxd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"relaxlattice/internal/quorum"
)

// FuzzDecodeFrame hardens the wire decoder, both as a frame stream
// (ReadMuxFrame) and as a bare message body (DecodeMessage): arbitrary
// bytes must never panic, never allocate past the declared caps, and
// anything that does decode must re-encode to a frame that decodes back
// to the same correlation id and message (the codec is a bijection on
// its valid range).
func FuzzDecodeFrame(f *testing.F) {
	// One well-formed frame of each message kind, plus hostile shapes.
	for _, m := range fuzzFrameSeeds() {
		var b bytes.Buffer
		if err := WriteMuxFrame(&b, 7, m); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 7, MsgLog, 0xff})
	// A hostile entry count behind a well-formed incarnation and flags,
	// and a frontier whose count overflows int.
	f.Add(append([]byte{0, 0, 0, 24, 0, 0, 0, 0, 0, 0, 0, 7, MsgLog, 1, 2, 3, 4, 5, 6, 7, 8, 3},
		0xff, 0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Add(append([]byte{0, 0, 0, 29, 0, 0, 0, 0, 0, 0, 0, 7, MsgGetLog, 1, 2, 3, 4, 5, 6, 7, 8},
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 1))

	stable := func(t *testing.T, data []byte, id uint64, m Message) {
		if len(m.Entries) > len(data)/minEntryLen {
			t.Fatalf("decoded %d entries from %d bytes — over-allocation past the cap", len(m.Entries), len(data))
		}
		var b bytes.Buffer
		if err := WriteMuxFrame(&b, id, m); err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		id2, m2, err := ReadMuxFrame(&b)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if id2 != id || m2.Type != m.Type || m2.N != m.N || m2.Err != m.Err || len(m2.Entries) != len(m.Entries) || len(m2.Wal) != len(m.Wal) ||
			m2.Inc != m.Inc || m2.Have != m.Have || m2.Max != m.Max || m2.Delta != m.Delta || m2.More != m.More {
			t.Fatalf("codec not stable: %d %+v vs %d %+v", id, m, id2, m2)
		}
		for i := range m.Entries {
			if m2.Entries[i].TS != m.Entries[i].TS || !m2.Entries[i].Op.Equal(m.Entries[i].Op) {
				t.Fatalf("entry %d not stable: %v vs %v", i, m.Entries[i], m2.Entries[i])
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if id, m, err := ReadMuxFrame(bytes.NewReader(data)); err == nil {
			stable(t, data, id, m)
		}
		if m, err := DecodeMessage(data); err == nil && len(data) <= MaxFrame {
			stable(t, data, 0, m)
		}
	})
}

// fuzzFrameSeeds is one well-formed message of each kind and shape:
// the zero and a frontier-bearing GetLog, a whole, a delta and a cut
// Log, a tagged and an untagged Append, the stale refusal, and a state
// that fits one frame.
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
		{Type: MsgLog, Inc: inc, More: true, Entries: entries[:2]},
		{Type: MsgAppend, Entries: entries[:2]},
		{Type: MsgAppend, Inc: inc, Entries: entries[2:]},
		{Type: MsgStale},
		{Type: MsgState, Entries: entries[:3], Wal: entries[3:]},
	}
}

// FuzzStateStream hardens the MsgState stream assembler. An input is a
// sequence of frames under one exchange, each a uvarint length and then
// that many bytes of a frame body after its type byte, fed in order to
// one stream. Every sequence either assembles, or is refused with
// ErrFrame, or stops before its last frame (a stream still arriving).
// It never panics; the entry array is never sized past statePrealloc
// (lowered here so every input stays cheap) except as far as the
// entries delivered so far need; a frame after the last is refused;
// and an assembled stream holds exactly the counts it declared and
// streams out again to the same entries.
func FuzzStateStream(f *testing.F) {
	for _, seed := range stateStreamSeeds(f) {
		f.Add(seed)
	}
	old := statePrealloc
	statePrealloc = 64
	f.Cleanup(func() { statePrealloc = old })
	f.Fuzz(func(t *testing.T, data []byte) {
		var st stateStream
		last := false
		for len(data) > 0 {
			n, rest, err := readUvarint(data)
			if err != nil || n > uint64(len(rest)) {
				break
			}
			frame := rest[:n]
			data = rest[n:]
			if last {
				if _, err := st.add(frame); !errors.Is(err, ErrFrame) {
					t.Fatalf("a frame past the last: got %v, want ErrFrame", err)
				}
				break
			}
			if last, err = st.add(frame); err != nil {
				if !errors.Is(err, ErrFrame) {
					t.Fatalf("refused without ErrFrame: %v", err)
				}
				return
			}
			if c := cap(st.entries); c > max(statePrealloc, 2*len(st.entries)) {
				t.Fatalf("array sized for %d entries holding %d", c, len(st.entries))
			}
		}
		if !last {
			return
		}
		m := st.message()
		if len(m.Entries) != st.snap || len(m.Entries)+len(m.Wal) != st.total {
			t.Fatalf("assembled %d + %d entries, declared %d of %d", len(m.Entries), len(m.Wal), st.snap, st.total)
		}
		again, last, err := assemble(stateFrames(t, m))
		if err != nil || !last {
			t.Fatalf("assembled state does not stream again: last=%v, %v", last, err)
		}
		got := again.message()
		for i, e := range append(got.Entries, got.Wal...) {
			want := st.entries[i]
			if e.TS != want.TS || !e.Op.Equal(want.Op) {
				t.Fatalf("entry %d streamed again as %s, was %s", i, e, want)
			}
		}
	})
}

// stateStreamSeeds are FuzzStateStream inputs: a state streamed one
// entry a frame, the same state in one frame, the empty state, and
// the shapes the assembler must refuse.
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
	whole := stateFrames(f, state)
	old := stateFrameBytes
	stateFrameBytes = 1
	split := stateFrames(f, state)
	stateFrameBytes = old
	return [][]byte{
		seq(split...),
		seq(whole...),
		seq(stateFrames(f, Message{Type: MsgState})...),
		seq(split[0], []byte{flagMore}, split[1]),
		seq(append(split, split[len(split)-1])...),
		seq(split[0], split[len(split)-1]),
		seq(append([]byte{flagFirst | flagMore, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0}, split[1][1:]...)),
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
