// Package relaxd is the production face of the replicated object: real
// replicas behind a wire protocol, each with a durable append-only site
// log, and a client library that runs the paper's three-step quorum
// protocol against them at a chosen degradation-ladder rung.
//
// The protocol itself is internal/cluster's Engine — the one body the
// deterministic in-memory cluster also runs, so the cluster stays the
// model oracle (the differential tests drive both through the same
// seeded workload and require byte-equal logs, histories, and checker
// verdicts). This package supplies the engine's site access and the
// parts a simulation cannot have: a length-prefixed binary protocol
// over pluggable transports (a synchronous in-process transport for
// deterministic tests, pooled TCP for production), a per-site WAL with
// per-record CRCs, fsync batching, snapshot + atomic tmp-then-rename
// publish, and crash-restart recovery whose landing point the online
// checker (internal/relaxcheck) certifies. DESIGN.md §15 documents the
// transport/protocol/store boundaries and the recovery invariant.
//
// Like examples/relaxedqueues, relaxd is a runtime layer: it does real
// I/O on real clocks, so its determinism is certified against the
// simulation by differential tests rather than built in.
package relaxd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"relaxlattice/internal/history"
	"relaxlattice/internal/quorum"
)

// Wire limits. A frame body is one type byte plus the payload; the
// decoder rejects any declared length beyond MaxFrame before
// allocating, so a hostile header can never force an over-allocation.
const (
	// MaxFrame bounds a frame body (type byte + payload).
	MaxFrame = 4 << 20
	// maxOpLen bounds one serialized operation execution.
	maxOpLen = 4096
	// minEntryLen is the smallest possible serialized entry (three
	// single-byte uvarints plus a one-byte op) — the denominator for
	// capping entry-count allocations by the bytes actually present.
	minEntryLen = 4
)

// A MsgLog, MsgAppend or MsgState travels as a stream of frames under
// its exchange's correlation id (writeMessage). The writer cuts a frame
// once it holds streamFrameBytes (about 4 400 of the taxi queue's
// entries), so a frame stays far below MaxFrame (one entry is at most
// maxOpLen bytes plus its varints) and the reader decodes one while the
// writer encodes the next. A variable only so that the stream tests can
// lower it.
var streamFrameBytes = 64 << 10

// streamPrealloc caps the entries a reply's stream allocates up front
// from the counts its first frame declares: no more than one MaxFrame of
// entries could make. A longer stream grows its array as the frames
// deliver. A variable only so that the stream fuzz target can lower it.
var streamPrealloc = MaxFrame / minEntryLen

// maxStream bounds the entries one stream declares (a MsgState's two
// counts together), and so a MsgAck's count: past it a count could
// overflow an int.
const maxStream = maxInt / 2

// Message types, one per frame kind.
const (
	// MsgGetLog asks a replica for its resident log (protocol step 1),
	// naming the frontier of what the client already knows the site
	// holds: (Inc, Have, Max). The zero frontier asks for everything.
	MsgGetLog byte = iota + 1
	// MsgLog is the reply to MsgGetLog: the entries past the frontier
	// when the site can vouch for it (Delta), else the log from its
	// start.
	MsgLog
	// MsgAppend sends a replica the entries of the client's updated
	// view it is not known to hold (protocol step 3), tagged with the
	// incarnation that knowledge is relative to; the zero tag makes no
	// such claim and carries the whole view. The replica makes the
	// entries it is missing durable before acknowledging.
	MsgAppend
	// MsgAck is the reply to MsgAppend: how many entries were new.
	MsgAck
	// MsgErr is a protocol-level error reply.
	MsgErr
	// MsgPing / MsgPong are the liveness probe pair.
	MsgPing
	MsgPong
	// MsgFetchState asks a replica for its full state for snapshot
	// shipping (a joining or wiped site rebuilding its store).
	MsgFetchState
	// MsgState is the reply to MsgFetchState: the entries the site's
	// published snapshot covers plus its WAL suffix.
	MsgState
	// MsgStale refuses a MsgAppend whose tag is not the site's current
	// incarnation: the site restarted since the client learned what it
	// holds, so the delta proves nothing. Never an acknowledgement.
	MsgStale
)

// msgMore is the type byte of a stream's continuation frame: more
// entries of the message whose first frame went under the same id. It
// is a frame kind, never a message.
const msgMore = MsgStale + 1

// ErrFrame is returned for any malformed frame or message payload. It
// is the decoder's single typed refusal: a reader that sees it knows
// the stream is unusable, never silently misparsed.
var ErrFrame = errors.New("relaxd: malformed frame")

// Message is one protocol message in decoded form.
type Message struct {
	Type byte
	// Entries carries the log for MsgLog, the view for MsgAppend, and
	// the snapshot-covered part for MsgState.
	Entries []quorum.Entry
	// Inc is a site incarnation — 64 random bits a replica draws each
	// time it opens its store, never 0. On MsgLog it is the answering
	// site's; on MsgGetLog and MsgAppend it is the one the client's
	// knowledge of the site was learned under (0: no knowledge).
	Inc uint64
	// Have and Max complete the MsgGetLog frontier: how many entries
	// the client knows the site holds and the largest timestamp among
	// them.
	Have int
	Max  quorum.Timestamp
	// Delta marks a MsgLog whose Entries start right after the frontier
	// the request named rather than at the start of the site's log.
	Delta bool
	// Wal is the MsgState WAL suffix — the entries past the published
	// snapshot. A decoded MsgState holds both parts in one array, Wal
	// right after Entries, so append(Entries, Wal...) copies nothing.
	Wal []quorum.Entry
	// N is the MsgAck payload: the number of entries newly appended.
	N int
	// Err is the MsgErr payload.
	Err string
}

// AppendMessage encodes the message body (type byte + payload) onto b.
func AppendMessage(b []byte, m Message) ([]byte, error) {
	b = append(b, m.Type)
	switch m.Type {
	case MsgPing, MsgPong, MsgFetchState, MsgStale:
		return b, nil
	case MsgGetLog:
		if m.Have < 0 || m.Max.Time < 0 || m.Max.Site < 0 {
			return nil, fmt.Errorf("%w: negative frontier %d@%v", ErrFrame, m.Have, m.Max)
		}
		b = binary.BigEndian.AppendUint64(b, m.Inc)
		b = binary.AppendUvarint(b, uint64(m.Have))
		b = binary.AppendUvarint(b, uint64(m.Max.Time))
		return binary.AppendUvarint(b, uint64(m.Max.Site)), nil
	case MsgLog, MsgAppend, MsgState:
		// The whole message as a one-frame stream.
		b, _, err := appendStreamFrame(b, m, 0, maxInt)
		return b, err
	case MsgAck:
		if m.N < 0 {
			return nil, fmt.Errorf("%w: negative ack count %d", ErrFrame, m.N)
		}
		return binary.AppendUvarint(b, uint64(m.N)), nil
	case MsgErr:
		b = binary.AppendUvarint(b, uint64(len(m.Err)))
		return append(b, m.Err...), nil
	}
	return nil, fmt.Errorf("%w: unknown message type %d", ErrFrame, m.Type)
}

// DecodeMessage parses one frame body produced by AppendMessage. It
// never panics on hostile input and never allocates beyond what the
// actual payload bytes can justify.
func DecodeMessage(body []byte) (Message, error) {
	if len(body) == 0 {
		return Message{}, fmt.Errorf("%w: empty body", ErrFrame)
	}
	m := Message{Type: body[0]}
	p := body[1:]
	switch m.Type {
	case MsgPing, MsgPong, MsgFetchState, MsgStale:
		if len(p) != 0 {
			return Message{}, fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(p))
		}
		return m, nil
	case MsgGetLog:
		inc, p, err := readIncarnation(p)
		if err != nil {
			return Message{}, err
		}
		var f [3]int // have, max time, max site
		for i := range f {
			var v uint64
			if v, p, err = readUvarint(p); err != nil {
				return Message{}, err
			}
			if v > uint64(maxInt) {
				return Message{}, fmt.Errorf("%w: frontier overflow", ErrFrame)
			}
			f[i] = int(v)
		}
		if len(p) != 0 {
			return Message{}, fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(p))
		}
		m.Inc, m.Have, m.Max = inc, f[0], quorum.Timestamp{Time: f[1], Site: f[2]}
		return m, nil
	case MsgLog, MsgAppend, MsgState:
		// One body is a whole message only as a one-frame stream; the
		// frames of a longer one are assembled by a frameReader. Nothing
		// is sized past what the body's bytes can hold.
		var st entryStream
		done, err := st.start(body, 0)
		if err != nil {
			return Message{}, err
		}
		if !done {
			return Message{}, fmt.Errorf("%w: %d of %d entries, more to come", ErrFrame, len(st.entries), st.total)
		}
		return st.message(), nil
	case MsgAck:
		n, rest, err := readUvarint(p)
		if err != nil {
			return Message{}, err
		}
		if len(rest) != 0 || n > uint64(maxStream) {
			return Message{}, fmt.Errorf("%w: bad ack payload", ErrFrame)
		}
		m.N = int(n)
		return m, nil
	case MsgErr:
		n, rest, err := readUvarint(p)
		if err != nil {
			return Message{}, err
		}
		if n != uint64(len(rest)) {
			return Message{}, fmt.Errorf("%w: error length %d, %d bytes present", ErrFrame, n, len(rest))
		}
		m.Err = string(rest)
		return m, nil
	}
	return Message{}, fmt.Errorf("%w: unknown message type %d", ErrFrame, m.Type)
}

// opTable shares parsed operations across the entries of one state
// stream or one store open, where a rejoin or a restart decodes a whole
// log: a log repeats a handful of operation texts (the taxi queue's are
// Enq(1..9), Deq and its results), so each distinct text is parsed once
// and every entry carrying it gets the same history.Op. Sharing is safe
// because ParseOp caps Args and Res at their lengths — an append to one
// entry's reallocates rather than writing into another's — and nothing
// writes an Op's integers in place. MsgLog and MsgAppend streams decode
// with no table.
type opTable map[string]*history.Op

// maxOpTable bounds a table's distinct texts. A table that fills holds a
// log whose texts hardly repeat, such as arbitrary client values, so
// from then on every text is parsed without a lookup, at the cost of
// parsing with no table.
const maxOpTable = 256

// parse sets *op to ParseOp of text, parsed once per table; t is not
// nil.
func (t opTable) parse(op *history.Op, text []byte) error {
	full := len(t) == maxOpTable
	if !full {
		if shared := t[string(text)]; shared != nil {
			*op = *shared
			return nil
		}
	}
	var err error
	if *op, err = history.ParseOp(string(text)); err == nil && !full {
		shared := new(history.Op)
		*shared = *op
		t[string(text)] = shared
	}
	return err
}

// appendEntry encodes one log entry: uvarint timestamp time and site,
// then the length-prefixed text form of the operation execution
// (history.Op.String's bytes — the same grammar history.ParseOp
// accepts, so the wire reuses the fuzz-hardened parser on the way in).
func appendEntry(b []byte, e quorum.Entry) ([]byte, error) {
	if e.TS.Time < 0 || e.TS.Site < 0 {
		return nil, fmt.Errorf("%w: negative timestamp %v", ErrFrame, e.TS)
	}
	b = binary.AppendUvarint(b, uint64(e.TS.Time))
	b = binary.AppendUvarint(b, uint64(e.TS.Site))
	// The text is rendered straight into b after a one-byte length
	// prefix, the prefix of any text under 128 bytes; a longer text is
	// shifted right to make room for its longer prefix.
	start := len(b)
	b = e.Op.AppendText(append(b, 0))
	n := len(b) - start - 1
	if n > maxOpLen {
		return nil, fmt.Errorf("%w: %d-byte operation", ErrFrame, n)
	}
	if n < 0x80 {
		b[start] = byte(n)
		return b, nil
	}
	var prefix [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(prefix[:], uint64(n))
	b = append(b, prefix[1:k]...)
	copy(b[start+k:], b[start+1:start+1+n])
	copy(b[start:], prefix[:k])
	return b, nil
}

// decodeEntry is the inverse of appendEntry, decoding into *e (which
// is left unspecified on error), its op through ops when it is not nil.
// ParseOp keeps no reference to its input, so the op text's conversion
// to a string stays on the stack: an entry costs one allocation, its
// integers, or none when ops already holds its text.
func decodeEntry(e *quorum.Entry, b []byte, ops opTable) ([]byte, error) {
	t, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	s, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	if t > uint64(maxInt) || s > uint64(maxInt) {
		return nil, fmt.Errorf("%w: timestamp overflow", ErrFrame)
	}
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > maxOpLen || n > uint64(len(b)) {
		return nil, fmt.Errorf("%w: op length %d with %d bytes left", ErrFrame, n, len(b))
	}
	// Without a table the op parses straight: the call through one
	// costs a list's decode about a tenth.
	if ops == nil {
		e.Op, err = history.ParseOp(string(b[:n]))
	} else {
		err = ops.parse(&e.Op, b[:n])
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFrame, err)
	}
	e.TS = quorum.Timestamp{Time: int(t), Site: int(s)}
	return b[n:], nil
}

const maxInt = int(^uint(0) >> 1)

// flagDelta is the one flag bit of a MsgLog.
const flagDelta byte = 1

// readIncarnation decodes the fixed 8-byte incarnation off the front
// of b.
func readIncarnation(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("%w: truncated incarnation", ErrFrame)
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

// readUvarint decodes one uvarint off the front of b.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated varint", ErrFrame)
	}
	return v, b[n:], nil
}

// Framing. A connection opens with the 8-byte preamble muxMagic, after
// which every frame carries an 8-byte correlation id between the length
// prefix and the message body:
//
//	frame: [4-byte BE length of (id+body)][8-byte BE id][body]
//
// Replies may arrive in any order; the id pairs them with requests, so
// one connection carries many concurrent in-flight exchanges.
//
// A MsgLog, MsgAppend or MsgState is a stream. Its first frame is the
// message's header and declared count (a MsgState's two) followed by
// the entries that fit; while the count is not reached, continuation
// frames under the same id, type msgMore, carry at least one entry each.
// A message that fits one frame is that frame alone, the body
// AppendMessage encodes. Every other message is one frame.
const (
	muxMagic  = "rlxmux1\n"
	muxHdrLen = 8
)

// sealFrame fills in the length prefix and correlation id of a frame
// whose body follows its 4+muxHdrLen header bytes, refusing a body the
// reader would refuse.
func sealFrame(frame []byte, id uint64) error {
	n := len(frame) - 4
	if n > MaxFrame+muxHdrLen {
		return fmt.Errorf("%w: body %d exceeds MaxFrame", ErrFrame, n)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(n))
	binary.BigEndian.PutUint64(frame[4:12], id)
	return nil
}

// writeMessage writes m under id, each frame in one call of write,
// encoded in turn into one buffer that grows only as far as the frames
// need. A stream longer than one frame holds stream (when not nil) from
// its first frame to its last, so two streams never interleave on one
// connection while other messages' frames still go between its own.
func writeMessage(write func([]byte) error, stream sync.Locker, id uint64, m Message) error {
	frame := make([]byte, 4+muxHdrLen, 64)
	for from, total := 0, streamLen(m); ; {
		start := from
		var err error
		frame = frame[:4+muxHdrLen]
		if !streamed(m.Type) {
			frame, err = AppendMessage(frame, m)
		} else if start == 0 {
			frame, from, err = appendStreamFrame(append(frame, m.Type), m, 0, streamFrameBytes)
		} else {
			frame, from, err = appendStreamFrame(append(frame, msgMore), m, start, streamFrameBytes)
		}
		if err != nil {
			return err
		}
		if err := sealFrame(frame, id); err != nil {
			return err
		}
		if start == 0 && from < total && stream != nil {
			stream.Lock()
			defer stream.Unlock()
		}
		if err := write(frame); err != nil {
			return err
		}
		if from == total {
			return nil
		}
	}
}

// streamed reports whether messages of type typ are entry streams.
func streamed(typ byte) bool {
	return typ == MsgLog || typ == MsgAppend || typ == MsgState
}

// streamLen is how many entries m's stream carries: a MsgState's two
// parts, a MsgLog's or MsgAppend's entries, 0 for any other type.
func streamLen(m Message) int {
	switch m.Type {
	case MsgState:
		return len(m.Entries) + len(m.Wal)
	case MsgLog, MsgAppend:
		return len(m.Entries)
	}
	return 0
}

// appendStreamFrame encodes, after the type byte, the frame of m's
// stream that starts at entry from (for a MsgState, counting the
// snapshot part, then the WAL part): at least one entry, and none past
// the first that takes the frame to maxBytes. The frame at entry 0 is
// the first, carrying m's header and count(s). It returns the index past
// the frame's last entry.
func appendStreamFrame(b []byte, m Message, from, maxBytes int) ([]byte, int, error) {
	snap, total := len(m.Entries), streamLen(m)
	start := len(b)
	if from == 0 {
		switch m.Type {
		case MsgLog:
			var flags byte
			if m.Delta {
				flags = flagDelta
			}
			b = append(binary.BigEndian.AppendUint64(b, m.Inc), flags)
			b = binary.AppendUvarint(b, uint64(total))
		case MsgAppend:
			b = binary.BigEndian.AppendUint64(b, m.Inc)
			b = binary.AppendUvarint(b, uint64(total))
		case MsgState:
			b = binary.AppendUvarint(b, uint64(snap))
			b = binary.AppendUvarint(b, uint64(len(m.Wal)))
		}
	}
	i := from
	for ; i < total && (i == from || len(b)-start < maxBytes); i++ {
		e := m.Entries
		k := i
		if i >= snap {
			e, k = m.Wal, i-snap
		}
		var err error
		if b, err = appendEntry(b, e[k]); err != nil {
			return nil, 0, err
		}
	}
	return b, i, nil
}

// readMuxBody reads one frame into *buf, growing it only as the frame
// needs, and returns the frame's correlation id and body. The declared
// length is validated against MaxFrame before any allocation.
func readMuxBody(r io.Reader, buf *[]byte) (uint64, []byte, error) {
	var hdr [4 + muxHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n <= muxHdrLen || n > MaxFrame+muxHdrLen {
		return 0, nil, fmt.Errorf("%w: declared mux body length %d", ErrFrame, n)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return 0, nil, fmt.Errorf("%w: short mux header: %v", ErrFrame, err)
	}
	id := binary.BigEndian.Uint64(hdr[4:12])
	size := int(n - muxHdrLen)
	if cap(*buf) < size {
		*buf = make([]byte, size)
	}
	body := (*buf)[:size]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("%w: short body: %v", ErrFrame, err)
	}
	return id, body, nil
}

// frameReader reads the frames of one direction of a connection and
// returns whole messages: a stream's frames assembled into one, any
// other frame as itself. A writer sends one stream at a time, so the
// reader assembles one at a time; one-frame messages of other exchanges
// may arrive between its frames. The frame buffer is reused from frame
// to frame: nothing decoded aliases it.
//
// Only a reader of replies sizes a stream's array from the counts its
// first frame declares, and no further than streamPrealloc. A request's
// array grows only as its frames deliver entries, so a peer cannot make
// a server allocate more than it has sent.
type frameReader struct {
	r       io.Reader
	replies bool
	buf     []byte
	id      uint64      // the exchange whose stream is in progress
	st      entryStream // the stream in progress, if st.started
}

// next returns the next whole message and its correlation id. An error
// leaves the reader unusable.
func (fr *frameReader) next() (uint64, Message, error) {
	for {
		id, body, err := readMuxBody(fr.r, &fr.buf)
		if err != nil {
			return 0, Message{}, err
		}
		var done bool
		switch {
		case body[0] == msgMore:
			if !fr.st.started || id != fr.id {
				return 0, Message{}, fmt.Errorf("%w: continuation frame for exchange %d outside its stream", ErrFrame, id)
			}
			done, err = fr.st.decode(body[1:])
		case fr.st.started && id == fr.id:
			return 0, Message{}, fmt.Errorf("%w: type %d frame inside the stream for exchange %d", ErrFrame, body[0], id)
		case fr.st.started || !streamed(body[0]):
			// A message of another exchange, which is whole in one frame
			// while a stream is in progress.
			m, err := DecodeMessage(body)
			return id, m, err
		default:
			prealloc := 0
			if fr.replies {
				prealloc = streamPrealloc
			}
			fr.id = id
			done, err = fr.st.start(body, prealloc)
		}
		if err != nil {
			return 0, Message{}, err
		}
		if done {
			m := fr.st.message()
			fr.st = entryStream{}
			return id, m, nil
		}
	}
}

// entryStream assembles one MsgLog, MsgAppend or MsgState from its
// frames. Every frame's entries decode straight into the one array the
// message carries (a joiner's log adopts a MsgState's), and a MsgState
// parses each distinct op text once.
type entryStream struct {
	m           Message // the header: Type, Inc, Delta
	started     bool
	snap, total int // where a MsgState's WAL part starts; the declared count
	entries     []quorum.Entry
	ops         opTable
}

// start decodes a stream's first frame — its body, type byte included —
// and reports whether it holds the whole message. The array is sized for
// the declared count, but past what the frame's bytes can hold no
// further than prealloc.
func (st *entryStream) start(body []byte, prealloc int) (bool, error) {
	st.m = Message{Type: body[0]}
	p := body[1:]
	var err error
	if st.m.Type != MsgState {
		if st.m.Inc, p, err = readIncarnation(p); err != nil {
			return false, err
		}
	}
	if st.m.Type == MsgLog {
		if len(p) == 0 || p[0]&^flagDelta != 0 {
			return false, fmt.Errorf("%w: bad log flags", ErrFrame)
		}
		st.m.Delta = p[0]&flagDelta != 0
		p = p[1:]
	}
	var n, wal uint64
	if n, p, err = readUvarint(p); err != nil {
		return false, err
	}
	if st.m.Type == MsgState {
		if wal, p, err = readUvarint(p); err != nil {
			return false, err
		}
	}
	if n > uint64(maxStream) || wal > uint64(maxStream)-n {
		return false, fmt.Errorf("%w: stream counts overflow", ErrFrame)
	}
	st.started, st.snap, st.total = true, int(n), int(n+wal)
	st.entries = make([]quorum.Entry, 0, min(st.total, max(len(p)/minEntryLen, prealloc)))
	if st.m.Type == MsgState {
		st.ops = make(opTable)
	}
	return st.decode(p)
}

// decode appends the entries of one frame — a first frame's after its
// header, a continuation frame's after its type byte — and reports
// whether they ended the stream. A frame that leaves the stream short of
// its declared count must carry at least one entry, and none may take
// the stream past it.
func (st *entryStream) decode(p []byte) (bool, error) {
	if len(p) == 0 && len(st.entries) < st.total {
		return false, fmt.Errorf("%w: empty frame at %d of %d entries", ErrFrame, len(st.entries), st.total)
	}
	for len(p) > 0 {
		n := len(st.entries)
		if n == st.total {
			return false, fmt.Errorf("%w: stream past its %d declared entries", ErrFrame, st.total)
		}
		st.entries = append(st.entries, quorum.Entry{})
		var err error
		if p, err = decodeEntry(&st.entries[n], p, st.ops); err != nil {
			return false, err
		}
	}
	return len(st.entries) == st.total, nil
}

// message returns the assembled message. A MsgState holds both parts in
// the one array, the WAL part right after the snapshot part.
func (st *entryStream) message() Message {
	m := st.m
	if m.Type == MsgState {
		m.Entries, m.Wal = st.entries[:st.snap], st.entries[st.snap:]
	} else {
		m.Entries = st.entries
	}
	return m
}
