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
	// published snapshot covers plus its WAL suffix.
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
	// snapshot.
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
		b, err := appendEntryList(b, m.Entries)
		if err != nil {
			return nil, err
		}
		return appendEntryList(b, m.Wal)
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
		entries, rest, err := decodeEntryList(p)
		if err != nil {
			return Message{}, err
		}
		wal, rest, err := decodeEntryList(rest)
		if err != nil {
			return Message{}, err
		}
		if len(rest) != 0 {
			return Message{}, fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(rest))
		}
		m.Entries = entries
		m.Wal = wal
		return m, nil
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
		if rest, err = decodeEntry(&entries[i], rest); err != nil {
			return nil, nil, err
		}
	}
	return entries, rest, nil
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
	// The text is rendered straight into b, then shifted right to make
	// room for its length prefix.
	start := len(b)
	b = e.Op.AppendText(b)
	n := len(b) - start
	if n > maxOpLen {
		return nil, fmt.Errorf("%w: %d-byte operation", ErrFrame, n)
	}
	var prefix [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(prefix[:], uint64(n))
	b = append(b, prefix[:k]...)
	copy(b[start+k:], b[start:start+n])
	copy(b[start:], prefix[:k])
	return b, nil
}

// decodeEntry is the inverse of appendEntry, decoding into *e (which
// is left unspecified on error). ParseOp keeps no reference to its
// input, so the op text's conversion to a string stays on the stack:
// an entry costs one allocation, its integers.
func decodeEntry(e *quorum.Entry, b []byte) ([]byte, error) {
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
	if e.Op, err = history.ParseOp(string(b[:n])); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFrame, err)
	}
	e.TS = quorum.Timestamp{Time: int(t), Site: int(s)}
	return b[n:], nil
}

const maxInt = int(^uint(0) >> 1)

// MsgLog flag bits.
const (
	flagDelta byte = 1 << iota
	flagMore
)

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
const (
	muxMagic  = "rlxmux1\n"
	muxHdrLen = 8
)

// WriteMuxFrame writes one frame.
func WriteMuxFrame(w io.Writer, id uint64, m Message) error {
	body, err := AppendMessage(make([]byte, 4+muxHdrLen, 64), m)
	if err != nil {
		return err
	}
	n := len(body) - 4
	if n > MaxFrame+muxHdrLen {
		return fmt.Errorf("%w: body %d exceeds MaxFrame", ErrFrame, n)
	}
	binary.BigEndian.PutUint32(body[:4], uint32(n))
	binary.BigEndian.PutUint64(body[4:12], id)
	_, err = w.Write(body)
	return err
}

// ReadMuxFrame reads one frame and decodes its body. The declared
// length is validated against MaxFrame before any allocation, so a
// hostile header cannot force an over-allocation past the cap.
func ReadMuxFrame(r io.Reader) (uint64, Message, error) {
	var hdr [4 + muxHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n <= muxHdrLen || n > MaxFrame+muxHdrLen {
		return 0, Message{}, fmt.Errorf("%w: declared mux body length %d", ErrFrame, n)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return 0, Message{}, fmt.Errorf("%w: short mux header: %v", ErrFrame, err)
	}
	id := binary.BigEndian.Uint64(hdr[4:12])
	body := make([]byte, n-muxHdrLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, Message{}, fmt.Errorf("%w: short body: %v", ErrFrame, err)
	}
	m, err := DecodeMessage(body)
	return id, m, err
}
