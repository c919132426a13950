package relaxd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
)

func ts(t, s int) quorum.Timestamp { return quorum.Timestamp{Time: t, Site: s} }

func sampleEntries() []quorum.Entry {
	return []quorum.Entry{
		{TS: ts(1, 6), Op: history.Enq(3)},
		{TS: ts(2, 7), Op: history.Enq(9)},
		{TS: ts(3, 6), Op: history.DeqOk(9)},
		{TS: ts(4, 8), Op: history.Credit(100)},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	msgs := append(fuzzFrameSeeds(),
		Message{Type: MsgLog},
		Message{Type: MsgGetLog, Inc: ^uint64(0), Have: maxInt, Max: ts(maxInt, maxInt)},
		Message{Type: MsgFetchState},
		Message{Type: MsgState, Entries: sampleEntries()[:3], Wal: sampleEntries()[3:]},
	)
	for i, m := range msgs {
		var b bytes.Buffer
		if err := writeMessage(to(&b), nil, uint64(i)<<33, m); err != nil {
			t.Fatalf("writeMessage(%+v): %v", m, err)
		}
		id, got, err := readMessage(&b)
		if err != nil {
			t.Fatalf("readMessage(%+v): %v", m, err)
		}
		if id != uint64(i)<<33 {
			t.Fatalf("correlation id: sent %d, got %d", uint64(i)<<33, id)
		}
		if got.Type != m.Type || got.N != m.N || got.Err != m.Err || len(got.Entries) != len(m.Entries) || len(got.Wal) != len(m.Wal) ||
			got.Inc != m.Inc || got.Have != m.Have || got.Max != m.Max || got.Delta != m.Delta {
			t.Fatalf("round trip: sent %+v, got %+v", m, got)
		}
		for i := range m.Entries {
			if got.Entries[i].TS != m.Entries[i].TS || !got.Entries[i].Op.Equal(m.Entries[i].Op) {
				t.Fatalf("entry %d: sent %v, got %v", i, m.Entries[i], got.Entries[i])
			}
		}
	}
}

// to returns a frame writer onto w.
func to(w io.Writer) func([]byte) error {
	return func(frame []byte) error {
		_, err := w.Write(frame)
		return err
	}
}

// readMessage reads one whole message as a server reads a request.
func readMessage(r io.Reader) (uint64, Message, error) {
	fr := frameReader{r: r}
	return fr.next()
}

func TestFrameReaderRejectsHostileHeaders(t *testing.T) {
	id := []byte{0, 0, 0, 0, 0, 0, 0, 7}
	frame := func(hdr []byte, body ...byte) []byte {
		return append(append(append([]byte(nil), hdr...), id...), body...)
	}
	cases := map[string][]byte{
		"zero length":    {0, 0, 0, 0},
		"id but no body": frame([]byte{0, 0, 0, 8}),
		"over MaxFrame":  {0xff, 0xff, 0xff, 0xff},
		"short id":       {0, 0, 0, 9, 0, 0, 0},
		"short body":     frame([]byte{0, 0, 0, 17}, MsgPing),
		"empty input":    {},
		"header only":    {0, 0},
		"unknown type":   frame([]byte{0, 0, 0, 9}, 0xee),
		"trailing bytes": frame([]byte{0, 0, 0, 11}, MsgPing, 1, 2),
	}
	for name, data := range cases {
		if _, _, err := readMessage(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: the frame reader accepted %x", name, data)
		}
	}
}

// TestFrameReaderDoesNotOverAllocate pins the allocation cap: a header
// declaring a body over MaxFrame is rejected before any body
// allocation, a one-frame body whose entry count is larger than its
// payload could hold is refused, and the writer refuses to emit a frame
// the reader would reject.
func TestFrameReaderDoesNotOverAllocate(t *testing.T) {
	huge := make([]byte, 4)
	binary.BigEndian.PutUint32(huge, MaxFrame+muxHdrLen+1)
	// An infinite reader after the header: if the length were trusted,
	// the reader would block allocating and reading MaxFrame+1 bytes.
	r := io.MultiReader(bytes.NewReader(huge), neverEnding{})
	if _, _, err := readMessage(r); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized declared length: got %v, want ErrFrame", err)
	}

	// A MsgLog and a MsgAppend body declaring 2^40 entries in a 3-byte
	// payload.
	for _, body := range [][]byte{
		append(logHeader(0), 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 2, 3),
		append(append([]byte{MsgAppend}, incBytes...), 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 2, 3),
	} {
		if _, err := DecodeMessage(body); !errors.Is(err, ErrFrame) {
			t.Fatalf("hostile entry count in a type-%d body: got %v, want ErrFrame", body[0], err)
		}
	}

	// The bound holds on the way out too — and therefore in-process,
	// where Local re-encodes every message through these functions.
	big := Message{Type: MsgErr, Err: strings.Repeat("x", MaxFrame)}
	if err := writeMessage(to(io.Discard), nil, 0, big); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized body written: got %v, want ErrFrame", err)
	}
	if _, err := reencode(big, false); !errors.Is(err, ErrFrame) {
		t.Fatalf("Local re-encode of an oversized body: got %v, want ErrFrame", err)
	}
}

type neverEnding struct{}

func (neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0xaa
	}
	return len(p), nil
}

func TestDecodeMessageRejectsBadEntries(t *testing.T) {
	// A structurally valid MsgLog whose op text does not parse.
	b := append(logHeader(0), 1 /* count */, 1 /* time */, 2 /* site */, 3, 'x', 'y', 'z')
	if _, err := DecodeMessage(b); !errors.Is(err, ErrFrame) {
		t.Fatalf("unparsable op: got %v, want ErrFrame", err)
	}
	// Op length pointing past the payload.
	b = append(logHeader(0), 1, 1, 2, 200, 'E')
	if _, err := DecodeMessage(b); !errors.Is(err, ErrFrame) {
		t.Fatalf("op length past payload: got %v, want ErrFrame", err)
	}
}

// incBytes is a well-formed 8-byte incarnation; logHeader is a MsgLog
// body up to and including its flags byte.
var incBytes = []byte{1, 2, 3, 4, 5, 6, 7, 8}

func logHeader(flags byte) []byte {
	return append(append([]byte{MsgLog}, incBytes...), flags)
}

// TestDecodeMessageRejectsBadFrontiers covers the fields the frontier
// exchange added: each malformed shape is refused with ErrFrame, and
// the well-formed neighbour of each decodes.
func TestDecodeMessageRejectsBadFrontiers(t *testing.T) {
	oneEntry := []byte{1 /* count */, 1, 2, 11, 'E', 'n', 'q', '(', '3', ')', '/', 'O', 'k', '(', ')'}
	overflow := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01} // 2^64-1
	good := map[string][]byte{
		"zero getlog":     append(append([]byte{MsgGetLog}, make([]byte, 8)...), 0, 0, 0),
		"frontier getlog": append(append([]byte{MsgGetLog}, incBytes...), 5, 9, 4),
		"delta log":       append(logHeader(flagDelta), oneEntry...),
		"tagged append":   append(append([]byte{MsgAppend}, incBytes...), oneEntry...),
		"stale":           {MsgStale},
	}
	for name, body := range good {
		if _, err := DecodeMessage(body); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	bad := map[string][]byte{
		"the old empty getlog":        {MsgGetLog},
		"getlog short incarnation":    {MsgGetLog, 1, 2, 3},
		"getlog missing site":         append(append([]byte{MsgGetLog}, incBytes...), 5, 9),
		"getlog trailing byte":        append(append([]byte{MsgGetLog}, incBytes...), 5, 9, 4, 0),
		"getlog count overflows int":  append(append(append([]byte{MsgGetLog}, incBytes...), overflow...), 9, 4),
		"getlog time overflows int":   append(append(append([]byte{MsgGetLog}, incBytes...), 5), append(overflow, 4)...),
		"the old bare log":            append([]byte{MsgLog}, oneEntry...),
		"log without flags":           append([]byte{MsgLog}, incBytes...),
		"log with an unknown flag":    append(logHeader(4), oneEntry...),
		"the old more flag":           append(logHeader(2), oneEntry...),
		"log short of its count":      append(logHeader(0), append([]byte{2}, oneEntry[1:]...)...),
		"the old bare append":         append([]byte{MsgAppend}, oneEntry...),
		"append with a short tag":     {MsgAppend, 1, 2, 3, 4},
		"stale with a trailing byte":  {MsgStale, 0},
		"append with trailing bytes":  append(append(append([]byte{MsgAppend}, incBytes...), oneEntry...), 7),
		"log with a flag, no entries": logHeader(flagDelta),
	}
	for name, body := range bad {
		if _, err := DecodeMessage(body); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: got %v, want ErrFrame", name, err)
		}
	}
}

// An ack counts the entries one MsgAppend delivered, so its bound is
// what a stream can declare, not what one frame can hold.
func TestAckCountBoundedByStream(t *testing.T) {
	for n, ok := range map[uint64]bool{MaxFrame + 1: true, uint64(maxStream): true, uint64(maxStream) + 1: false, 1 << 63: false} {
		m, err := DecodeMessage(binary.AppendUvarint([]byte{MsgAck}, n))
		if ok && (err != nil || uint64(m.N) != n) || !ok && !errors.Is(err, ErrFrame) {
			t.Errorf("ack of %d: decoded %d, %v", n, m.N, err)
		}
	}
}

// TestDecodeEntryAllocatesOnlyItsIntegers pins what makes decoding
// cheap: the op text's conversion to a string stays on the stack
// because history.ParseOp keeps no reference to it, so an entry of
// the library's operations costs one allocation for its integers and
// none without them.
func TestDecodeEntryAllocatesOnlyItsIntegers(t *testing.T) {
	for op, want := range map[string]float64{"Enq(7)/Ok()": 1, "Deq()/Ok(7)": 1, "Debit(3,4)/Over(5)": 1, "Deq()/Ok()": 0} {
		parsed, err := history.ParseOp(op)
		if err != nil {
			t.Fatal(err)
		}
		b, err := appendEntry(nil, quorum.Entry{TS: ts(40000, 3), Op: parsed})
		if err != nil {
			t.Fatal(err)
		}
		var e quorum.Entry
		got := testing.AllocsPerRun(100, func() {
			if _, err := decodeEntry(&e, b, nil); err != nil {
				t.Fatal(err)
			}
		})
		if got != want || e.Op.String() != op {
			t.Errorf("decoding %s: %v allocations (want %v), decoded %s", op, got, want, e.Op)
		}
	}
}

// BenchmarkDecodeEntryList32k decodes one MsgAppend body of relaxbench's
// recovery size — the per-entry decode every shipped log, recovered
// WAL record and snapshot record pays.
func BenchmarkDecodeEntryList32k(b *testing.B) {
	entries := pqEntries(recoveryEntries)
	body, err := AppendMessage(nil, Message{Type: MsgAppend, Entries: entries})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := DecodeMessage(body)
		if err != nil || len(got.Entries) != len(entries) {
			b.Fatalf("decoded %d entries, %v", len(got.Entries), err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(entries)), "ns/entry")
}

func TestAppendMessageRejectsUnencodable(t *testing.T) {
	if _, err := AppendMessage(nil, Message{Type: MsgLog, Entries: []quorum.Entry{
		{TS: ts(-1, 0), Op: history.Enq(1)},
	}}); !errors.Is(err, ErrFrame) {
		t.Fatalf("negative timestamp: got %v, want ErrFrame", err)
	}
	long := history.Op{Name: strings.Repeat("x", maxOpLen), Term: history.Ok}
	if _, err := AppendMessage(nil, Message{Type: MsgLog, Entries: []quorum.Entry{
		{TS: ts(1, 1), Op: long},
	}}); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized op: got %v, want ErrFrame", err)
	}
}

// An entry's op text follows its uvarint length whatever the length:
// texts on both sides of the one-byte prefix's limit encode to the same
// layout and decode back.
func TestAppendEntryPrefixesEveryLength(t *testing.T) {
	for _, n := range []int{8, 126, 127, 128, 129, 300, maxOpLen} {
		op := history.Op{Name: strings.Repeat("x", n-len("()/Ok()")), Term: history.Ok}
		e := quorum.Entry{TS: ts(200, 3), Op: op}
		got, err := appendEntry([]byte{0xee}, e)
		if err != nil {
			t.Fatal(err)
		}
		want := binary.AppendUvarint([]byte{0xee, 0xc8, 0x01, 3}, uint64(n))
		want = append(want, op.String()...)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte text encoded as %x, want %x", n, got, want)
		}
		var back quorum.Entry
		if rest, err := decodeEntry(&back, got[1:], nil); err != nil || len(rest) != 0 || back.TS != e.TS || !back.Op.Equal(op) {
			t.Fatalf("%d-byte text decoded as %v (%d left): %v", n, back, len(rest), err)
		}
	}
}
