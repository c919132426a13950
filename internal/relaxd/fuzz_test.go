package relaxd

import (
	"bytes"
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
		if id2 != id || m2.Type != m.Type || m2.N != m.N || m2.Err != m.Err || len(m2.Entries) != len(m.Entries) ||
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
// Log, a tagged and an untagged Append, and the stale refusal.
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
		if log.Len() != info.WALEntries {
			t.Fatalf("recovered log %d entries, info says %d", log.Len(), info.WALEntries)
		}
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
		if log.Len() != info.WALEntries {
			t.Fatalf("recovered log %d entries, info says %d", log.Len(), info.WALEntries)
		}
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
