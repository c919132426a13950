package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
)

// KV is one event attribute. Values are strings; callers format numbers
// themselves (strconv), keeping the journal schema trivially stable.
type KV struct {
	K, V string
}

// Event is one entry in a Recorder's journal: a named occurrence at a
// logical time with ordered attributes. T is whatever logical clock the
// emitting component injects — a Lamport tick, a schedule index, an
// exploration depth — never wall time.
type Event struct {
	T     int64
	Name  string
	Attrs []KV
}

// Attr returns the value of the named attribute and whether it is
// present. Linear scan: events carry a handful of attributes.
//
//lint:ignore unreached observer: cluster's and relaxcheck's tests read episode attributes with it
func (e Event) Attr(key string) (string, bool) {
	for _, kv := range e.Attrs {
		if kv.K == key {
			return kv.V, true
		}
	}
	return "", false
}

// AppendJSONString appends s as a JSON string literal — the shared
// no-error-path encoder of the journal and span streams (see
// appendJSONString for why it is hand-rolled).
func AppendJSONString(dst []byte, s string) []byte {
	return appendJSONString(dst, s)
}

// appendJSONString appends s as a JSON string literal. Hand-rolled so
// the journal encoder has no error path (encoding/json cannot fail on
// strings, but its API still returns an error the err-drop pass would
// make us handle at every call site).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for _, r := range s {
		switch r {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			if r < 0x20 {
				dst = append(dst, fmt.Sprintf("\\u%04x", r)...)
			} else {
				dst = utf8AppendRune(dst, r)
			}
		}
	}
	return append(dst, '"')
}

// utf8AppendRune appends the UTF-8 encoding of r.
func utf8AppendRune(dst []byte, r rune) []byte {
	return append(dst, string(r)...)
}

// appendJSON appends the event as one JSON object with fixed field
// order: {"t":…,"name":…,"k1":"v1",…}. Attribute keys are emitted in
// the order recorded; components keep that order fixed per event name.
func (e Event) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, e.T, 10)
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, e.Name)
	for _, kv := range e.Attrs {
		dst = append(dst, ',')
		dst = appendJSONString(dst, kv.K)
		dst = append(dst, ':')
		dst = appendJSONString(dst, kv.V)
	}
	return append(dst, '}')
}

// Recorder is an append-only journal of logical-clock events. It is
// safe for concurrent use, but ordering across goroutines is whatever
// the lock admits — deterministic journals come from recording at
// deterministic points (under a component's own mutex, or from a
// single goroutine) and from merging per-worker recorders in a fixed
// order (see Append). A nil *Recorder no-ops everywhere, so callers
// instrument unconditionally.
type Recorder struct {
	mu     sync.Mutex
	events []Event // guarded by mu
}

// NewRecorder returns an empty journal.
func NewRecorder() *Recorder {
	return &Recorder{}
}

// Record appends one event; it no-ops on a nil receiver. Attrs are
// copied, so callers may reuse their slice.
func (r *Recorder) Record(t int64, name string, attrs ...KV) {
	if r == nil {
		return
	}
	e := Event{T: t, Name: name, Attrs: append([]KV(nil), attrs...)}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

// Append moves every event of src onto r in src's recorded order —
// the deterministic merge primitive: create one scratch Recorder per
// unit of work, then Append them in unit order. Appending nil, or onto
// nil, no-ops; src is drained either way only when r is non-nil.
func (r *Recorder) Append(src *Recorder) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	moved := src.events
	src.events = nil
	src.mu.Unlock()
	if len(moved) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, moved...)
}

// Events returns a copy of the journal (nil on a nil receiver).
//
//lint:ignore unreached observer: cluster's and relaxcheck's tests read the episode journal with it
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// WriteJSONL writes the journal as JSON Lines, one event per line —
// the byte-stable format `relaxctl run -trace` emits. A nil receiver
// writes nothing and returns nil.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var buf []byte
	for _, e := range r.events {
		buf = e.appendJSON(buf[:0])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
