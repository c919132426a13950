package relaxd

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"relaxlattice/internal/core"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxcheck"
)

// The WAL torture battery: a valid WAL image is damaged the way a kill
// -9 (or a lying disk) damages one — truncated at every byte offset,
// zero-filled from every byte offset, and bit-flipped through every CRC
// bit — and OpenStore must either recover a prefix the relaxation
// checker certifies at the claimed rung, or refuse with ErrCorrupt.
// Never a silently wrong log.

// walImage builds a clean WAL image from entries and returns the image
// plus each record's end offset (bounds[i] = end of record i-1;
// bounds[0] = headerLen).
func walImage(t *testing.T, entries []quorum.Entry) (img []byte, bounds []int) {
	t.Helper()
	dir := t.TempDir()
	s, _, _, err := OpenStore(dir, StoreOptions{})
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
	img, err = os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	bounds = []int{headerLen}
	for _, e := range entries {
		rec, err := appendRecord(nil, e)
		if err != nil {
			t.Fatalf("appendRecord: %v", err)
		}
		bounds = append(bounds, bounds[len(bounds)-1]+len(rec))
	}
	if bounds[len(bounds)-1] != len(img) {
		t.Fatalf("record bounds end at %d, image is %d bytes", bounds[len(bounds)-1], len(img))
	}
	return img, bounds
}

// openImage writes a damaged WAL image into a fresh directory as
// segment 0 and opens it.
func openImage(t *testing.T, img []byte) (*Store, quorum.Log, RecoveryInfo, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), img, 0o644); err != nil {
		t.Fatal(err)
	}
	return OpenStore(dir, StoreOptions{})
}

// requireCertifiedPrefix asserts the recovered log is a prefix of the
// original entries AND certifies at the strongest taxi rung — the
// recovery invariant of DESIGN.md §15.
func requireCertifiedPrefix(t *testing.T, recovered quorum.Log, entries []quorum.Entry, wantLen int) {
	t.Helper()
	if recovered.Len() != wantLen {
		t.Fatalf("recovered %d entries, want %d", recovered.Len(), wantLen)
	}
	if !quorum.LogOf(entries...).HasPrefix(recovered) {
		t.Fatalf("recovered log is not a prefix of the original:\n%s", recovered)
	}
	if v := relaxcheck.Certify(core.TaxiSimpleLattice(), nil, "Q1Q2", recovered.History()); v != nil {
		t.Fatalf("recovered prefix fails certification: %+v", v)
	}
}

// completeRecords counts the records of img that survive intact when
// the image is cut (or diverges from the original) at offset o.
func completeRecords(bounds []int, o int) int {
	n := 0
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= o {
			n = i
		}
	}
	return n
}

func TestWALTortureTruncateEveryOffset(t *testing.T) {
	entries := serialPQEntries(10)
	img, bounds := walImage(t, entries)
	for o := 0; o <= len(img); o++ {
		s, log, info, err := openImage(t, img[:o])
		if err != nil {
			t.Fatalf("truncate at %d: open refused a torn tail: %v", o, err)
		}
		want := completeRecords(bounds, o)
		requireCertifiedPrefix(t, log, entries, want)
		if want > 0 && info.RepairedBytes != o-bounds[want] {
			t.Fatalf("truncate at %d: repaired %d bytes, want %d", o, info.RepairedBytes, o-bounds[want])
		}
		// The repaired store must be immediately usable: append past the
		// tear and survive a clean reopen.
		requireUsable(t, s, log, entries)
	}
}

func TestWALTortureZeroFillEveryOffset(t *testing.T) {
	entries := serialPQEntries(10)
	img, bounds := walImage(t, entries)
	for o := headerLen; o < len(img); o++ {
		mut := append([]byte(nil), img...)
		for i := o; i < len(mut); i++ {
			mut[i] = 0
		}
		// The honest oracle: a record survives iff its bytes are
		// unchanged (a zero-fill over already-zero bytes is a no-op).
		want := 0
		for i := 1; i < len(bounds); i++ {
			if !bytes.Equal(mut[bounds[i-1]:bounds[i]], img[bounds[i-1]:bounds[i]]) {
				break
			}
			want = i
		}
		s, log, _, err := openImage(t, mut)
		if err != nil {
			t.Fatalf("zero fill from %d: open refused a torn tail: %v", o, err)
		}
		requireCertifiedPrefix(t, log, entries, want)
		requireUsable(t, s, log, entries)
	}
}

func TestWALTortureBitFlipEveryCRCBit(t *testing.T) {
	entries := serialPQEntries(10)
	img, bounds := walImage(t, entries)
	last := len(bounds) - 2 // index of the last record
	for rec := 0; rec < len(bounds)-1; rec++ {
		crcOff := bounds[rec] + 4
		for bit := 0; bit < 32; bit++ {
			mut := append([]byte(nil), img...)
			mut[crcOff+bit/8] ^= 1 << (bit % 8)
			s, log, info, err := openImage(t, mut)
			if rec == last {
				// A flipped CRC on the final record is indistinguishable
				// from a torn final write: repair by dropping it.
				if err != nil {
					t.Fatalf("flip rec %d bit %d: open refused the final record: %v", rec, bit, err)
				}
				requireCertifiedPrefix(t, log, entries, last)
				if info.RepairedBytes != bounds[rec+1]-bounds[rec] {
					t.Fatalf("flip rec %d bit %d: repaired %d bytes, want the whole record (%d)",
						rec, bit, info.RepairedBytes, bounds[rec+1]-bounds[rec])
				}
				requireUsable(t, s, log, entries)
				continue
			}
			// A bad CRC with live records after it cannot be a torn
			// write: the typed refusal, never a silent repair.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip rec %d bit %d: got %v, want ErrCorrupt", rec, bit, err)
			}
			if s != nil {
				s.Close()
			}
		}
	}
}

// TestWALTortureLostInteriorSectorRefuses: the active segment is
// reserved ahead of its records, so a power loss can persist a later
// unsynced sector without an earlier one. A chunk-aligned image with
// one 512-byte sector zeroed and live records after it is refused, not
// repaired: recovery gains no repair case, the site rejoins instead.
func TestWALTortureLostInteriorSectorRefuses(t *testing.T) {
	const sector = 512
	entries := serialPQEntries(80)
	dir := t.TempDir()
	s, _, _, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := appendDurable(s, e); err != nil {
			t.Fatal(err)
		}
	}
	// Read before Close trims it: the image a crash leaves.
	img, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	end := int(s.walSize)
	if len(img) != walChunk || end <= 2*sector {
		t.Fatalf("image is %d bytes with records to %d; want one %d-byte chunk, records past %d",
			len(img), end, walChunk, 2*sector)
	}
	for off := 0; off+sector < end; off += sector {
		mut := append([]byte(nil), img...)
		clear(mut[off : off+sector])
		s, _, _, err := openImage(t, mut)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("sector at %d zeroed: got %v, want ErrCorrupt", off, err)
		}
		if s != nil {
			s.Close()
		}
	}
}

// requireUsable appends one fresh entry to a repaired store, reopens,
// and checks nothing was lost — repair must leave a working store.
func requireUsable(t *testing.T, s *Store, recovered quorum.Log, entries []quorum.Entry) {
	t.Helper()
	next := quorum.Entry{TS: ts(len(entries)+100, 6), Op: entries[0].Op}
	if err := appendDurable(s, next); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close after repair: %v", err)
	}
	s2, log, info, err := OpenStore(s.dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen after repair: %v", err)
	}
	defer s2.Close()
	if info.RepairedBytes != 0 {
		t.Fatalf("reopen after repair still repaired %d bytes", info.RepairedBytes)
	}
	if !log.Equal(recovered.Append(next)) {
		t.Fatalf("post-repair store lost data:\n got %s\nwant %s", log, recovered.Append(next))
	}
}
