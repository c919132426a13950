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

// maxChunk is the most entries one MsgLog reply or one MsgAppend
// request carries; a longer log or view travels as several, so no
// healthy exchange can outgrow MaxFrame however long the history (at
// ~15 bytes an entry a chunk is ~1 MiB). A variable only so that the
// chunking test can lower it.
var maxChunk = 1 << 16

// A MsgState reply travels as a stream of frames under its request's
// correlation id (writeState). The donor cuts a frame once it holds
// stateFrameBytes (about 4 400 of the taxi queue's entries), so a frame
// stays far below MaxFrame (one entry is at most maxOpLen bytes plus its
// varints) and the joiner decodes one while the donor encodes the next.
// A variable only so that the streaming tests can lower it.
var stateFrameBytes = 64 << 10

// statePrealloc caps the entries a state stream allocates up front
// from the counts its first frame declares: no more than one MaxFrame
// of entries could make. A longer stream grows its array as the frames
// deliver. A variable only so that the stream fuzz target can lower it.
var statePrealloc = MaxFrame / minEntryLen

// Message types, one per frame kind.
const (
	// MsgGetLog asks a replica for its resident log (protocol step 1),
	// naming the frontier of what the client already knows the site
	// holds: (Inc, Have, Max). The zero frontier asks for everything.
	MsgGetLog byte = iota + 1
	// MsgLog is the reply to MsgGetLog: the entries past the frontier
	// when the site can vouch for it (Delta), else the log from its
	// start; at most maxChunk of them, More saying the log goes on.
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
	// published snapshot covers plus its WAL suffix, streamed as bounded
	// frames under the request's id that the reader assembles into one
	// Message.
	MsgState
	// MsgStale refuses a MsgAppend whose tag is not the site's current
	// incarnation: the site restarted since the client learned what it
	// holds, so the delta proves nothing. Never an acknowledgement.
	MsgStale
)

// ErrFrame is returned for any malformed frame or message payload. It
// is the decoder's single typed refusal: a reader that sees it knows
// the stream is unusable, never silently misparsed.
var ErrFrame = errors.New("relaxd: malformed frame")

// Message is one protocol message in decoded form.
type Message struct {
	Type byte
	// Entries carries the log (part) for MsgLog, the view (part) for
	// MsgAppend, and the snapshot-covered part for MsgState.
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
	// More marks a MsgLog cut at maxChunk: the site holds entries past
	// the last one sent.
	More bool
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
	case MsgLog:
		b = binary.BigEndian.AppendUint64(b, m.Inc)
		var flags byte
		if m.Delta {
			flags |= flagDelta
		}
		if m.More {
			flags |= flagMore
		}
		return appendEntryList(append(b, flags), m.Entries)
	case MsgAppend:
		return appendEntryList(binary.BigEndian.AppendUint64(b, m.Inc), m.Entries)
	case MsgState:
		// The whole state as a one-frame stream.
		b, _, err := appendStateFrame(b, m, 0, maxInt)
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
	case MsgLog, MsgAppend:
		inc, p, err := readIncarnation(p)
		if err != nil {
			return Message{}, err
		}
		if m.Type == MsgLog {
			if len(p) == 0 || p[0]&^(flagDelta|flagMore) != 0 {
				return Message{}, fmt.Errorf("%w: bad log flags", ErrFrame)
			}
			m.Delta, m.More = p[0]&flagDelta != 0, p[0]&flagMore != 0
			p = p[1:]
		}
		entries, rest, err := decodeEntryList(p)
		if err != nil {
			return Message{}, err
		}
		if len(rest) != 0 {
			return Message{}, fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(rest))
		}
		if m.More && len(entries) == 0 {
			// A reader re-asks from where the chunk ended; an empty chunk
			// promising more would have it re-ask forever.
			return Message{}, fmt.Errorf("%w: empty log chunk with more to come", ErrFrame)
		}
		m.Inc, m.Entries = inc, entries
		return m, nil
	case MsgState:
		// One body is a whole state only as a one-frame stream; the
		// frames of a longer one are assembled by a replyReader. A frame
		// promising more is refused before its counts size anything.
		if len(p) > 0 && p[0]&flagMore != 0 {
			return Message{}, fmt.Errorf("%w: state frame with more to come", ErrFrame)
		}
		var st stateStream
		if _, err := st.add(p); err != nil {
			return Message{}, err
		}
		return st.message(), nil
	case MsgAck:
		n, rest, err := readUvarint(p)
		if err != nil {
			return Message{}, err
		}
		if len(rest) != 0 || n > uint64(MaxFrame) {
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

// appendEntryList encodes a uvarint count followed by the entries.
func appendEntryList(b []byte, entries []quorum.Entry) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		var err error
		b, err = appendEntry(b, e)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// decodeEntryList is the inverse of appendEntryList. Each entry needs
// at least minEntryLen bytes, so the declared count is capped by the
// bytes that are actually present — a hostile count can never force an
// over-allocation.
func decodeEntryList(p []byte) ([]quorum.Entry, []byte, error) {
	n, rest, err := readUvarint(p)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)/minEntryLen) {
		return nil, nil, fmt.Errorf("%w: %d entries declared in %d bytes", ErrFrame, n, len(rest))
	}
	entries := make([]quorum.Entry, n)
	for i := range entries {
		if rest, err = decodeEntry(&entries[i], rest, nil); err != nil {
			return nil, nil, err
		}
	}
	return entries, rest, nil
}

// opTable shares parsed operations across the entries of one state
// stream or one store open, where a rejoin or a restart decodes a whole
// log: a log repeats a handful of operation texts (the taxi queue's are
// Enq(1..9), Deq and its results), so each distinct text is parsed once
// and every entry carrying it gets the same history.Op. Sharing is safe
// because ParseOp caps Args and Res at their lengths — an append to one
// entry's reallocates rather than writing into another's — and nothing
// writes an Op's integers in place. MsgLog and MsgAppend lists decode
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

// Flag bits: flagDelta and flagMore on a MsgLog; flagFirst and
// flagMore on a MsgState frame.
const (
	flagDelta byte = 1 << iota
	flagMore
)

// flagFirst marks the MsgState frame that opens a stream and declares
// its counts.
const flagFirst byte = 1

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
// one connection carries many concurrent in-flight exchanges. A
// MsgState reply is several frames under its request's id (writeState);
// every other message is one frame.
const (
	muxMagic  = "rlxmux1\n"
	muxHdrLen = 8
)

// WriteMuxFrame writes one frame.
func WriteMuxFrame(w io.Writer, id uint64, m Message) error {
	frame, err := appendFrame(id, m)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// appendFrame encodes m as one frame under id.
func appendFrame(id uint64, m Message) ([]byte, error) {
	frame, err := AppendMessage(make([]byte, 4+muxHdrLen, 64), m)
	if err != nil {
		return nil, err
	}
	return frame, sealFrame(frame, id)
}

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

// writeMessage writes m under id, each frame in one call of write: a
// MsgState reply as its stream, anything else as one frame.
func writeMessage(write func([]byte) error, id uint64, m Message) error {
	if m.Type == MsgState {
		return writeState(write, id, m)
	}
	frame, err := appendFrame(id, m)
	if err != nil {
		return err
	}
	return write(frame)
}

// writeState writes a MsgState reply as a stream of frames under id,
// each encoded in turn into one reused buffer: the first declares the
// snapshot and WAL counts, each stops growing at stateFrameBytes, and
// only the last lacks flagMore. Over a socket the reader decodes one
// frame while the next is encoded, and no state is too long to send.
func writeState(write func([]byte) error, id uint64, m Message) error {
	buf := make([]byte, 0, 4+muxHdrLen+stateFrameBytes+maxOpLen+64)
	for from, total := 0, len(m.Entries)+len(m.Wal); ; {
		var err error
		buf = append(buf[:0], make([]byte, 4+muxHdrLen)...)
		if buf, from, err = appendStateFrame(append(buf, MsgState), m, from, stateFrameBytes); err != nil {
			return err
		}
		if err := sealFrame(buf, id); err != nil {
			return err
		}
		if err := write(buf); err != nil {
			return err
		}
		if from == total {
			return nil
		}
	}
}

// appendStateFrame encodes, after the type byte, the frame of m's state
// stream that starts at entry from (counting the snapshot part, then the
// WAL part): at least one entry, and none past the first that takes the
// frame to maxBytes. The frame at entry 0 carries flagFirst and the two
// counts; flagMore says entries remain. It returns the index past the
// frame's last entry.
func appendStateFrame(b []byte, m Message, from, maxBytes int) ([]byte, int, error) {
	snap, total := len(m.Entries), len(m.Entries)+len(m.Wal)
	start := len(b)
	b = append(b, 0)
	flags := byte(0)
	if from == 0 {
		flags = flagFirst
		b = binary.AppendUvarint(b, uint64(snap))
		b = binary.AppendUvarint(b, uint64(len(m.Wal)))
	}
	i := from
	for ; i < total && (i == from || len(b)-start < maxBytes); i++ {
		part, k := m.Entries, i
		if i >= snap {
			part, k = m.Wal, i-snap
		}
		var err error
		if b, err = appendEntry(b, part[k]); err != nil {
			return nil, 0, err
		}
	}
	if i < total {
		flags |= flagMore
	}
	b[start] = flags
	return b, i, nil
}

// ReadMuxFrame reads one frame and decodes its body. The declared
// length is validated against MaxFrame before any allocation, so a
// hostile header cannot force an over-allocation past the cap.
func ReadMuxFrame(r io.Reader) (uint64, Message, error) {
	var buf []byte
	id, body, err := readMuxBody(r, &buf)
	if err != nil {
		return 0, Message{}, err
	}
	m, err := DecodeMessage(body)
	return id, m, err
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

// replyReader reads the reply frames of one connection and returns
// whole messages: the frames of a MsgState stream assembled into one,
// any other frame as itself. A server writes one stream at a time on a
// connection, so the reader assembles one at a time; other replies may
// arrive between its frames. The frame buffer is reused from frame to
// frame: nothing decoded aliases it.
type replyReader struct {
	r   io.Reader
	buf []byte
	id  uint64       // the id of the stream in progress
	st  *stateStream // the stream in progress; nil between streams
}

// next returns the next whole message and its correlation id. An error
// leaves the reader unusable.
func (rr *replyReader) next() (uint64, Message, error) {
	for {
		id, body, err := readMuxBody(rr.r, &rr.buf)
		if err != nil {
			return 0, Message{}, err
		}
		if body[0] != MsgState {
			m, err := DecodeMessage(body)
			return id, m, err
		}
		if rr.st == nil {
			rr.st, rr.id = &stateStream{}, id
		} else if id != rr.id {
			return 0, Message{}, fmt.Errorf("%w: state frame for exchange %d inside the stream for %d", ErrFrame, id, rr.id)
		}
		last, err := rr.st.add(body[1:])
		if err != nil {
			return 0, Message{}, err
		}
		if last {
			m := rr.st.message()
			rr.st = nil
			return id, m, nil
		}
	}
}

// stateStream assembles one MsgState reply from its frames. The first
// frame declares how many snapshot and WAL entries the stream carries;
// every frame's entries decode straight into the one array the joiner's
// log adopts, allocated once from those counts (capped at
// statePrealloc), with each distinct op text parsed once per stream.
type stateStream struct {
	started, done bool
	snap, total   int
	entries       []quorum.Entry
	ops           opTable
}

// add decodes one MsgState frame — its body after the type byte — and
// reports whether it ended the stream. A frame that breaks the stream's
// shape is refused with ErrFrame: flags other than flagFirst on the
// first frame alone and flagMore on all but the last, an empty frame
// promising more, more entries than declared or a last frame short of
// them, and any frame past the last.
func (st *stateStream) add(p []byte) (bool, error) {
	if st.done {
		return false, fmt.Errorf("%w: state frame past the last one", ErrFrame)
	}
	if len(p) == 0 {
		return false, fmt.Errorf("%w: state frame without flags", ErrFrame)
	}
	flags := p[0]
	p = p[1:]
	if flags&^(flagFirst|flagMore) != 0 || (flags&flagFirst != 0) == st.started {
		return false, fmt.Errorf("%w: bad state flags %#x", ErrFrame, flags)
	}
	more := flags&flagMore != 0
	if !st.started {
		var snap, wal uint64
		var err error
		if snap, p, err = readUvarint(p); err != nil {
			return false, err
		}
		if wal, p, err = readUvarint(p); err != nil {
			return false, err
		}
		if snap > uint64(maxInt/2) || wal > uint64(maxInt/2) {
			return false, fmt.Errorf("%w: state counts overflow", ErrFrame)
		}
		total := snap + wal
		size := min(total, uint64(statePrealloc))
		if !more {
			// The whole state is in this frame: its bytes bound the count.
			if total > uint64(len(p)/minEntryLen) {
				return false, fmt.Errorf("%w: %d entries declared in %d bytes", ErrFrame, total, len(p))
			}
			size = total
		}
		st.started, st.snap, st.total = true, int(snap), int(total)
		st.entries = make([]quorum.Entry, 0, size)
		st.ops = make(opTable)
	}
	if more && len(p) == 0 {
		return false, fmt.Errorf("%w: empty state frame with more to come", ErrFrame)
	}
	for len(p) > 0 {
		n := len(st.entries)
		if n == st.total {
			return false, fmt.Errorf("%w: state stream past its %d declared entries", ErrFrame, st.total)
		}
		st.entries = append(st.entries, quorum.Entry{})
		var err error
		if p, err = decodeEntry(&st.entries[n], p, st.ops); err != nil {
			return false, err
		}
	}
	if !more {
		st.done = true
		if len(st.entries) != st.total {
			return false, fmt.Errorf("%w: state stream ended at %d of %d declared entries", ErrFrame, len(st.entries), st.total)
		}
	}
	return !more, nil
}

// message returns the assembled reply: both parts in the one array,
// the WAL part right after the snapshot part.
func (st *stateStream) message() Message {
	return Message{Type: MsgState, Entries: st.entries[:st.snap], Wal: st.entries[st.snap:]}
}
