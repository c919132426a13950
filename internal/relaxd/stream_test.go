package relaxd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"maps"
	"net"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
)

// lowerStreamFrames sets the per-frame byte bound of the streams for
// one test. At 1 byte every frame carries one entry.
func lowerStreamFrames(t *testing.T, bytes int) {
	old := streamFrameBytes
	streamFrameBytes = bytes
	t.Cleanup(func() { streamFrameBytes = old })
}

// streamFrames returns the frame bodies writeMessage sends for m.
func streamFrames(t testing.TB, m Message) [][]byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeMessage(to(&b), nil, 9, m); err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for data := b.Bytes(); len(data) > 0; {
		n := 4 + int(binary.BigEndian.Uint32(data))
		frames = append(frames, data[4+muxHdrLen:n])
		data = data[n:]
	}
	return frames
}

// frameSeq frames bodies under id, as a connection carries them.
func frameSeq(id uint64, bodies ...[]byte) []byte {
	var b []byte
	for _, body := range bodies {
		b = binary.BigEndian.AppendUint32(b, uint32(muxHdrLen+len(body)))
		b = binary.BigEndian.AppendUint64(b, id)
		b = append(b, body...)
	}
	return b
}

// readFrames reads data to its end with one reader, of replies or of
// requests, and returns the whole messages and the error that stopped
// it: io.EOF after a clean end, a stream still arriving otherwise.
func readFrames(data []byte, replies bool) (*frameReader, []Message, error) {
	fr := &frameReader{r: bytes.NewReader(data), replies: replies}
	var msgs []Message
	for {
		_, m, err := fr.next()
		if err != nil {
			return fr, msgs, err
		}
		msgs = append(msgs, m)
	}
}

// assemble reads the frame bodies under one exchange as a client reads
// a reply, and returns the one message they make.
func assemble(t testing.TB, frames [][]byte) Message {
	t.Helper()
	_, msgs, err := readFrames(frameSeq(9, frames...), true)
	if err != io.EOF || len(msgs) != 1 {
		t.Fatalf("%d frames read as %d messages, then %v", len(frames), len(msgs), err)
	}
	return msgs[0]
}

// shippedEntries is a reply's two parts in order.
func shippedEntries(m Message) []quorum.Entry {
	return append(append([]quorum.Entry(nil), m.Entries...), m.Wal...)
}

// requireSameEntries fails unless got and want hold the same entries.
func requireSameEntries(t *testing.T, what string, got, want []quorum.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].TS != want[i].TS || !got[i].Op.Equal(want[i].Op) {
			t.Fatalf("%s: entry %d is %s, want %s", what, i, got[i], want[i])
		}
	}
}

// donorWithSuffix is a durable site holding entries: a published
// snapshot of all but the last few, which are its WAL suffix.
func donorWithSuffix(t *testing.T, site int, entries []quorum.Entry) *Replica {
	t.Helper()
	tail := len(entries) - 5
	r := publishedReplica(t, site, t.TempDir(), entries[:tail])
	r.SnapshotEvery = 0
	for _, e := range entries[tail:] {
		if err := ackOne(r, e); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// joinEach joins a fresh durable site 1 from the donor at site 0 over
// each transport, and checks what the join reports, that the joined log
// is the donor's, and that it survives a restart.
func joinEach(t *testing.T, donor *Replica, certify func(history.History) error, transports map[string]Transport) {
	t.Helper()
	state, err := donor.Handle(Message{Type: MsgFetchState})
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range transports {
		joiner, _, err := OpenReplica(1, t.TempDir(), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { joiner.Close() })
		info, err := joiner.JoinFrom(JoinConfig{Transport: tr, Certify: certify})
		if err != nil {
			t.Fatalf("%s: join: %v", name, err)
		}
		if info.Peer != 0 || info.SnapshotEntries != len(state.Entries) || info.WALEntries != len(state.Wal) {
			t.Fatalf("%s: join reported %+v, the donor holds %d + %d", name, info, len(state.Entries), len(state.Wal))
		}
		if !joiner.Log().Equal(donor.Log()) {
			t.Fatalf("%s: joined log differs from the donor's", name)
		}
		joiner.Crash()
		if _, err := joiner.Restart(); err != nil {
			t.Fatal(err)
		}
		if !joiner.Log().Equal(donor.Log()) {
			t.Fatalf("%s: the joined store reopens to a different log", name)
		}
	}
}

// servePooled serves r on loopback TCP and returns a pooled transport
// whose slot 0 reaches it; the other slots are never dialed.
func servePooled(t *testing.T, r *Replica, sites int) *PooledTransport {
	t.Helper()
	srv, err := ListenSite("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, sites)
	addrs[0] = srv.Addr()
	tr := NewPooledTransport(addrs, 0)
	t.Cleanup(func() {
		tr.Close()
		srv.Close()
	})
	return tr
}

// A state many frames long joins over Local and over sockets: with the
// per-frame bound lowered to one entry, the donor's 40-entry state
// streams as 40 frames.
func TestJoinStreamsManyFrames(t *testing.T) {
	lowerStreamFrames(t, 1)
	donor := donorWithSuffix(t, 0, serialPQEntries(40))
	state, err := donor.Handle(Message{Type: MsgFetchState})
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Wal) == 0 || len(state.Entries) == 0 {
		t.Fatalf("donor state %d + %d, want both parts", len(state.Entries), len(state.Wal))
	}
	if n := len(streamFrames(t, state)); n != 40 {
		t.Fatalf("40 entries at one a frame streamed as %d frames, want 40", n)
	}
	joinEach(t, donor, PQCertify(), map[string]Transport{
		"local":  NewLocal([]*Replica{donor, nil}),
		"pooled": servePooled(t, donor, 2),
	})
}

// bigEntries returns n entries whose op texts are each nearly maxOpLen
// bytes long.
func bigEntries(n int) []quorum.Entry {
	args := make([]int, 780)
	for i := range args {
		args[i] = 1000 + i
	}
	entries := make([]quorum.Entry, n)
	for i := range entries {
		args[0] = i
		entries[i] = quorum.Entry{TS: ts(i+1, 0), Op: history.MakeOp("Put", args, history.Ok, nil)}
	}
	return entries
}

// A state whose one-frame encoding is past MaxFrame — a join the frame
// bound used to refuse, leaving the site unable to rejoin — streams and
// joins over both transports.
func TestJoinLargerThanMaxFrame(t *testing.T) {
	entries := bigEntries(MaxFrame/3900 + 50)
	donor := honestDonor(t, 0, entries)
	donor.snapLen = len(entries) / 2
	state, err := donor.Handle(Message{Type: MsgFetchState})
	if err != nil {
		t.Fatal(err)
	}
	if body, err := AppendMessage(nil, state); err != nil || len(body) <= MaxFrame {
		t.Fatalf("the state is one %d-byte body (%v): the test needs one past MaxFrame", len(body), err)
	}
	joinEach(t, donor, nil, map[string]Transport{
		"local":  NewLocal([]*Replica{donor, nil}),
		"pooled": servePooled(t, donor, 2),
	})
}

// killListener hands out connections that die when they are about to
// write their (frames+1)-th frame of a MsgState stream: a donor killed
// mid-stream.
type killListener struct {
	net.Listener
	frames int
	killed chan struct{}
}

func (l *killListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &killConn{Conn: c, l: l, left: l.frames}, nil
}

type killConn struct {
	net.Conn
	l    *killListener
	left int
}

func (c *killConn) Write(b []byte) (int, error) {
	if len(b) > 4+muxHdrLen && (b[4+muxHdrLen] == MsgState || b[4+muxHdrLen] == msgMore) {
		if c.left == 0 {
			close(c.l.killed)
			c.Conn.Close()
			return 0, errors.New("donor killed")
		}
		c.left--
	}
	return c.Conn.Write(b)
}

// peekTransport runs before ahead of each round trip.
type peekTransport struct {
	Transport
	before func(site int)
}

func (p peekTransport) RoundTrip(site int, req Message) (Message, error) {
	p.before(site)
	return p.Transport.RoundTrip(site, req)
}

// A donor killed after 4 of its 30 frames fails only its own fetch: the
// joiner's directory and resident log are untouched when the next peer
// is asked, and the join completes from that peer.
func TestJoinSurvivesDonorKilledMidStream(t *testing.T) {
	lowerStreamFrames(t, 1)
	entries := serialPQEntries(30)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kl := &killListener{Listener: lis, frames: 4, killed: make(chan struct{})}
	go Serve(kl, honestDonor(t, 0, entries))
	t.Cleanup(func() { lis.Close() })
	if n := len(streamFrames(t, Message{Type: MsgState, Wal: entries})); n != 30 {
		t.Fatalf("30 entries streamed as %d frames, want 30", n)
	}
	honest := honestDonor(t, 1, entries)
	srv, err := ListenSite("127.0.0.1:0", honest)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewPooledTransport([]string{lis.Addr().String(), srv.Addr(), "unused"}, 0)
	t.Cleanup(func() {
		tr.Close()
		srv.Close()
	})

	dir := t.TempDir()
	victim := publishedReplica(t, 2, dir, entries[:4])
	before, log := dirImage(t, dir), victim.Log()
	var asked []int
	peek := peekTransport{Transport: tr, before: func(site int) {
		asked = append(asked, site)
		if site != 1 {
			return
		}
		select {
		case <-kl.killed:
		default:
			t.Fatal("the next peer was asked before the first donor died")
		}
		if after := dirImage(t, dir); !maps.Equal(after, before) {
			t.Fatalf("a donor killed mid-stream changed the store: %v, was %v", names(after), names(before))
		}
		if !victim.Log().Equal(log) {
			t.Fatalf("a donor killed mid-stream changed the resident log to %s", victim.Log())
		}
	}}
	info, err := victim.JoinFrom(JoinConfig{Transport: peek, Certify: PQCertify()})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if info.Peer != 1 || len(asked) != 2 || asked[0] != 0 {
		t.Fatalf("joined from %d after asking %v, want site 1 after site 0", info.Peer, asked)
	}
	if !victim.Log().Equal(quorum.LogOf(entries...)) {
		t.Fatalf("joined log %s", victim.Log())
	}
}

// Every malformed frame sequence is refused with ErrFrame, a sequence
// that stops short of its count is a stream still arriving, and the
// well-formed one assembles to the message it was written from.
func TestStateStreamRefusals(t *testing.T) {
	lowerStreamFrames(t, 1)
	entries := sampleEntries()[:2]
	state := Message{Type: MsgState, Entries: entries[:1], Wal: entries}
	good := streamFrames(t, state) // 3 entries, one a frame
	if len(good) != 3 {
		t.Fatalf("3 entries streamed as %d frames, want 3", len(good))
	}
	got := assemble(t, good)
	requireSameEntries(t, "snapshot part", got.Entries, state.Entries)
	requireSameEntries(t, "WAL part", got.Wal, state.Wal)

	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	entry, err := appendEntry(nil, entries[0])
	if err != nil {
		t.Fatal(err)
	}
	logFirst := join([]byte{MsgLog}, incBytes, []byte{0, 2}, entry)
	appendFirst := join([]byte{MsgAppend}, incBytes, []byte{2}, entry)
	more := join([]byte{msgMore}, entry)
	bad := map[string][][]byte{
		"empty frame short of the count": {good[0], {msgMore}, good[1], good[2]},
		"empty first frame, a count":     {{MsgState, 1, 0}, more},
		"more entries than declared":     {join([]byte{MsgState, 1, 0}, entry, entry)},
		"a continuation too many":        {join([]byte{MsgState, 2, 0}, entry), join(more, entry)},
		"frame past the last":            {good[0], good[1], good[2], good[2]},
		"continuation first":             {good[1], good[2]},
		"a second first frame":           {good[0], good[0]},
		"a log's second first frame":     {logFirst, logFirst},
		"a whole message inside it":      {good[0], {MsgPong}, good[1], good[2]},
		"an append past its count":       {appendFirst, more, more},
		"no counts":                      {{MsgState}},
		"counts overflow":                {join([]byte{MsgState, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0}, entry)},
		"counts overflow together":       {join([]byte{MsgState}, binary.AppendUvarint(nil, uint64(maxStream)), []byte{1}, entry)},
		"truncated counts":               {{MsgState, 0x80}},
		"undecodable entry":              {{MsgState, 1, 0, 1, 1, 3, 'x', 'y', 'z'}},
		"entry past the frame's end":     {{MsgState, 1, 0, 1, 1, 40, 'E'}},
		"a count and no entries":         {{MsgState, 0, 1}},
	}
	for name, frames := range bad {
		if _, _, err := readFrames(frameSeq(9, frames...), true); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: got %v, want ErrFrame", name, err)
		}
	}
	unfinished := map[string][][]byte{
		"a frame missing":          {good[0], good[2]},
		"a log short of its count": {logFirst},
		"an append short":          {appendFirst},
	}
	for name, frames := range unfinished {
		if _, msgs, err := readFrames(frameSeq(9, frames...), true); err != io.EOF || len(msgs) != 0 {
			t.Errorf("%s: %d messages, then %v; want none and io.EOF", name, len(msgs), err)
		}
	}
}

// streamKinds is one message of each streamed type, two entries long
// (the state's one of each part), so at one entry a frame each streams
// as two frames.
func streamKinds() []Message {
	entries := sampleEntries()
	return []Message{
		{Type: MsgState, Entries: entries[:1], Wal: entries[1:2]},
		{Type: MsgLog, Inc: 3, Delta: true, Entries: entries[:2]},
		{Type: MsgAppend, Inc: 4, Entries: entries[:2]},
	}
}

// A reader, of replies or of requests, assembles a stream of any of the
// three types while other messages arrive between its frames, and
// refuses a continuation frame of another exchange inside it.
func TestReplyReaderInterleaves(t *testing.T) {
	lowerStreamFrames(t, 1)
	pong := frameSeq(6, []byte{MsgPong})
	for _, m := range streamKinds() {
		frames := streamFrames(t, m)
		if len(frames) != 2 {
			t.Fatalf("type %d: %d frames, want 2", m.Type, len(frames))
		}
		for _, replies := range []bool{true, false} {
			data := join3(frameSeq(5, frames[0]), pong, frameSeq(5, frames[1]))
			fr := &frameReader{r: bytes.NewReader(data), replies: replies}
			if id, got, err := fr.next(); err != nil || id != 6 || got.Type != MsgPong {
				t.Fatalf("type %d: interleaved reply: %d %+v %v", m.Type, id, got, err)
			}
			id, got, err := fr.next()
			if err != nil || id != 5 || got.Type != m.Type || got.Inc != m.Inc || got.Delta != m.Delta {
				t.Fatalf("type %d: stream: %d %+v %v", m.Type, id, got, err)
			}
			requireSameEntries(t, "interleaved stream", shippedEntries(got), shippedEntries(m))

			data = join3(frameSeq(5, frames[0]), frameSeq(7, frames[1]), nil)
			if _, _, err := readFrames(data, replies); !errors.Is(err, ErrFrame) {
				t.Fatalf("type %d: another exchange's continuation inside a stream: got %v, want ErrFrame", m.Type, err)
			}
		}
	}
}

func join3(a, b, c []byte) []byte { return append(append(append([]byte(nil), a...), b...), c...) }

// A first frame declaring 2^40 entries, of any streamed type: a reply
// reader allocates no more than one MaxFrame of entries could; a request
// reader, which a server runs, only as the frames deliver entries, over
// a stream of many continuation frames as well; and DecodeMessage, for
// which the same count in one body is not whole, sizes nothing from it.
func TestStateStreamDoesNotOverAllocate(t *testing.T) {
	entry, err := appendEntry(nil, sampleEntries()[0])
	if err != nil {
		t.Fatal(err)
	}
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20} // 2^40
	headers := map[string][]byte{
		"state":  append(append([]byte{MsgState}, huge...), 0),
		"log":    append(append(append([]byte{MsgLog}, incBytes...), 0), huge...),
		"append": append(append([]byte{MsgAppend}, incBytes...), huge...),
	}
	bound := uint64(MaxFrame/minEntryLen) * uint64(unsafe.Sizeof(quorum.Entry{}))
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const conts = 1000
	for name, hdr := range headers {
		first := append(append([]byte(nil), hdr...), entry...)
		var fr *frameReader
		var err error
		if got := allocated(func() { fr, _, err = readFrames(frameSeq(9, first), true) }); got > bound+1<<20 {
			t.Fatalf("%s: a reply declaring 2^40 entries allocated %d bytes, bound %d", name, got, bound)
		}
		if err != io.EOF || cap(fr.st.entries) > MaxFrame/minEntryLen {
			t.Fatalf("%s: reply stream sized for %d entries, then %v", name, cap(fr.st.entries), err)
		}

		frames := [][]byte{first}
		for range conts {
			frames = append(frames, append([]byte{msgMore}, entry...))
		}
		data := frameSeq(9, frames...)
		if got := allocated(func() { fr, _, err = readFrames(data, false) }); got > 1<<20 {
			t.Fatalf("%s: a request declaring 2^40 entries in %d bytes allocated %d bytes", name, len(data), got)
		}
		if n := len(fr.st.entries); err != io.EOF || n != conts+1 || cap(fr.st.entries) > 2*n {
			t.Fatalf("%s: request stream of %d entries sized for %d, then %v", name, n, cap(fr.st.entries), err)
		}

		if got := allocated(func() { _, err = DecodeMessage(first) }); !errors.Is(err, ErrFrame) || got > 1<<16 {
			t.Fatalf("%s: a body declaring 2^40 entries: %v after %d bytes allocated, want ErrFrame", name, err, got)
		}
	}
}

// A state stream decodes each distinct op text once and shares the
// parsed op: every decoded op equals history.ParseOp of its text,
// appending to one decoded op's Args or Res never changes another entry,
// a 32 150-entry stream costs allocations on the order of its distinct
// texts, not its entries, and texts that never repeat stop adding to the
// table once it is full.
func TestDecodedOpsShareSafely(t *testing.T) {
	entries := pqEntries(recoveryEntries)
	// The queue's ops carry Args or Res, never both; these carry both.
	twoSided := make([]quorum.Entry, 128)
	for i := range twoSided {
		op, err := history.ParseOp([]string{"Debit(3,4)/Over(5)", "Move(1)/Ok(2,3)", "Deq()/Ok(9)"}[i%3])
		if err != nil {
			t.Fatal(err)
		}
		twoSided[i] = quorum.Entry{TS: ts(i+1, 2), Op: op}
	}
	// Texts that never repeat fill the table and run past it.
	distinct := make([]quorum.Entry, 4*maxOpTable)
	for i := range distinct {
		distinct[i] = quorum.Entry{TS: ts(i+1, 2), Op: history.Enq(i)}
	}
	for _, entries := range [][]quorum.Entry{entries, twoSided, distinct} {
		got := shippedEntries(assemble(t, streamFrames(t, Message{Type: MsgState, Entries: entries[:len(entries)/2], Wal: entries[len(entries)/2:]})))
		for i, e := range got {
			want, err := history.ParseOp(entries[i].Op.String())
			if err != nil || e.TS != entries[i].TS || !e.Op.Equal(want) {
				t.Fatalf("entry %d: %s, want %s %s", i, e, entries[i].TS, want)
			}
		}
		for i := range got {
			op := got[i].Op
			_ = append(op.Args, 1_000_000+i)
			_ = append(op.Res, 2_000_000+i)
		}
		for i, e := range got {
			if e.Op.String() != entries[i].Op.String() {
				t.Fatalf("entry %d became %s after appends to the other entries' ops", i, e.Op)
			}
		}
	}

	texts := map[string]bool{}
	for _, e := range entries {
		texts[e.Op.String()] = true
	}
	for _, c := range []struct {
		entries []quorum.Entry
		limit   int
	}{
		{entries, 4*len(texts) + 16},
		// Past a full table an entry costs its integers alone.
		{distinct, len(distinct) + 2*maxOpTable + 32},
	} {
		data := frameSeq(9, streamFrames(t, Message{Type: MsgState, Wal: c.entries})...)
		if n := testing.AllocsPerRun(3, func() {
			if _, _, err := readFrames(data, true); err != io.EOF {
				t.Fatal(err)
			}
		}); n > float64(c.limit) {
			t.Errorf("a stream of %d entries took %v allocations, want at most %v", len(c.entries), n, c.limit)
		}
	}
}

// A MsgLog gets no op table: decoding a three-entry one costs the
// entries array and each entry's integers, as it did before tables
// existed.
func TestShortListsGetNoOpTable(t *testing.T) {
	body, err := AppendMessage(nil, Message{Type: MsgLog, Inc: 1, Entries: sampleEntries()[:3]})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeMessage(body); err != nil {
			t.Fatal(err)
		}
	}); n != 4 {
		t.Fatalf("a three-entry MsgLog took %v allocations, want 4", n)
	}
}

// A message of any streamed type that fits one frame is that frame
// alone, the body AppendMessage encodes — for a MsgLog and a MsgAppend
// the bytes they had before they streamed: header, count, entries — and
// the body round-trips through DecodeMessage; a body that is only the
// first frame of a longer stream is not a whole message.
func TestOneFrameStateIsAMessage(t *testing.T) {
	entries := sampleEntries()
	var list []byte
	for _, e := range entries {
		var err error
		if list, err = appendEntry(list, e); err != nil {
			t.Fatal(err)
		}
	}
	inc := []byte{0, 0, 0, 0, 0, 0, 0, 7}
	kinds := []struct {
		m    Message
		want []byte // nil: no layout predates the stream
	}{
		{Message{Type: MsgState, Entries: entries[:3], Wal: entries[3:]}, nil},
		{Message{Type: MsgLog, Inc: 7, Delta: true, Entries: entries}, bytes.Join([][]byte{{MsgLog}, inc, {flagDelta, 4}, list}, nil)},
		{Message{Type: MsgAppend, Inc: 7, Entries: entries}, bytes.Join([][]byte{{MsgAppend}, inc, {4}, list}, nil)},
	}
	for _, k := range kinds {
		body, err := AppendMessage(nil, k.m)
		if err != nil {
			t.Fatal(err)
		}
		frames := streamFrames(t, k.m)
		if len(frames) != 1 || !bytes.Equal(frames[0], body) || (k.want != nil && !bytes.Equal(body, k.want)) {
			t.Fatalf("type %d: streamed %d frames, first %x; AppendMessage body %x, want %x", k.m.Type, len(frames), frames[0], body, k.want)
		}
		got, err := DecodeMessage(body)
		if err != nil || got.Inc != k.m.Inc || got.Delta != k.m.Delta {
			t.Fatalf("type %d: decoded %+v, %v", k.m.Type, got, err)
		}
		requireSameEntries(t, "first part", got.Entries, k.m.Entries)
		requireSameEntries(t, "WAL part", got.Wal, k.m.Wal)
	}

	lowerStreamFrames(t, 1)
	for _, k := range kinds {
		first := streamFrames(t, k.m)[0]
		if _, err := DecodeMessage(first); !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "more to come") {
			t.Fatalf("type %d: first frame of a stream as a message: got %v, want ErrFrame", k.m.Type, err)
		}
	}
}

// fixedTransport answers every round trip with one reply.
type fixedTransport struct {
	sites int
	reply Message
}

func (f fixedTransport) Sites() int { return f.sites }

func (f fixedTransport) RoundTrip(int, Message) (Message, error) { return f.reply, nil }

// A join adopts the two shipped parts as one array, and lands on the
// merge of the two parts as logs: the first occurrence of a timestamp —
// the snapshot part's — wins, however the parts overlap or are ordered.
// A reply whose parts are separate arrays is copied, never appended
// into the spare capacity behind its snapshot part.
func TestJoinAdoptsPartsAsTheirMerge(t *testing.T) {
	e := func(time int, op history.Op) quorum.Entry { return quorum.Entry{TS: ts(time, 0), Op: op} }
	snap := []quorum.Entry{e(3, history.Enq(3)), e(1, history.Enq(1)), e(5, history.Enq(5)), e(1, history.Enq(9))}
	wal := []quorum.Entry{e(6, history.Enq(6)), e(5, history.Enq(8)), e(2, history.Enq(2)), e(6, history.Enq(7))}
	want := quorum.Merge(quorum.LogOf(snap...), quorum.LogOf(wal...))
	joiner, _, err := OpenReplica(1, t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	backing := make([]quorum.Entry, len(snap)+len(wal))
	copy(backing, snap)
	spare := backing[len(snap):]
	for i := range spare {
		spare[i] = e(100+i, history.Enq(100+i))
	}
	reply := Message{Type: MsgState, Entries: backing[:len(snap)], Wal: append([]quorum.Entry(nil), wal...)}
	if _, err := joiner.JoinFrom(JoinConfig{Transport: fixedTransport{sites: 2, reply: reply}}); err != nil {
		t.Fatal(err)
	}
	if got := joiner.Log(); !got.Equal(want) || got.String() != want.String() {
		t.Fatalf("joined\n%s\nwant the parts' merge\n%s", got, want)
	}
	for i, s := range spare {
		if s.TS.Time != 100+i {
			t.Fatalf("the join wrote %s into the snapshot part's spare capacity", s)
		}
	}
}

// Concurrent state fetches on one pooled connection each get their own
// whole state: the donor writes one stream at a time, so their frames
// never interleave, and every fetch is one round trip.
func TestConcurrentStateFetchesPooled(t *testing.T) {
	lowerStreamFrames(t, 1)
	donor := donorWithSuffix(t, 0, serialPQEntries(30))
	want, err := donor.Handle(Message{Type: MsgFetchState})
	if err != nil {
		t.Fatal(err)
	}
	tr := &recordingTransport{Transport: servePooled(t, donor, 1)}
	const fetches = 8
	errs := make(chan error, fetches)
	for i := 0; i < fetches; i++ {
		go func() {
			resp, err := tr.Transport.RoundTrip(0, Message{Type: MsgFetchState})
			if err == nil && (len(resp.Entries) != len(want.Entries) || len(resp.Wal) != len(want.Wal)) {
				err = errors.New("a fetch assembled the wrong state")
			}
			errs <- err
		}()
	}
	for i := 0; i < fetches; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	resp, err := tr.RoundTrip(0, Message{Type: MsgFetchState})
	if err != nil {
		t.Fatal(err)
	}
	requireSameEntries(t, "state", shippedEntries(resp), shippedEntries(want))
	if n := len(tr.of(MsgFetchState, 0)); n != 1 {
		t.Fatalf("one fetch took %d round trips", n)
	}
}
