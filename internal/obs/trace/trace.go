// Package trace is the causal-span substrate of the observability
// layer: deterministic spans — intervals of logical time with
// parent/child nesting and explicit happens-before links — recorded by
// the cluster's three-step quorum protocol, the adaptive degradation
// ladder and the transactional runtime.
//
// Everything is deterministic by construction, like the rest of
// internal/obs: span timestamps come from injected logical clocks
// (never the wall clock), and span identifiers are derived by hashing
// down the causal tree — a root span's ID is a hash of its track name
// and root index, a child's ID a hash of its parent's ID and child
// index — so the same execution produces the same span stream
// byte-for-byte at any GOMAXPROCS, and per-unit scratch tracers merged
// in a fixed order reproduce the serial stream exactly.
//
// The JSONL stream a Tracer writes is the input to cmd/relaxtrace,
// which rebuilds the happens-before DAG, attributes latency per
// protocol step and per degradation rung along the critical path, and
// exports Chrome trace-event JSON for visual inspection (see
// analyze.go).
package trace

import (
	"io"
	"strconv"
	"sync"

	"relaxlattice/internal/obs"
)

// SpanID identifies a span. IDs are FNV-1a hash chains seeded at the
// tracer's track name: deterministic, merge-stable, and unique with
// overwhelming probability within a stream. The zero ID means "no
// span" (a root has parent 0).
type SpanID uint64

// String renders the ID as fixed-width hex (the JSONL encoding).
func (id SpanID) String() string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseSpanID parses the fixed-width hex encoding.
func ParseSpanID(s string) (SpanID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	return SpanID(v), err
}

// fnv1a is the 64-bit FNV-1a hash, the ID-derivation primitive.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// deriveID computes the hash-chained span ID: parent ID (or the track
// hash for roots) mixed with the child (or root) index.
func deriveID(parent uint64, index uint64) SpanID {
	id := SpanID(fnvUint(fnvUint(fnvOffset, parent), index))
	if id == 0 {
		id = 1 // reserve 0 for "no span"
	}
	return id
}

// Span is one completed causal span: a named interval of logical time
// with a parent (0 for roots), ordered attributes, and optional
// happens-before links to spans outside its tree (e.g. "my step-1 view
// read a site log last written under that span").
type Span struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  int64
	End    int64
	Links  []SpanID
	Attrs  []obs.KV
}

// Dur returns the span's logical duration.
func (s Span) Dur() int64 { return s.End - s.Start }

// Attr returns the value of the named attribute and whether it is
// present.
func (s Span) Attr(key string) (string, bool) {
	for _, kv := range s.Attrs {
		if kv.K == key {
			return kv.V, true
		}
	}
	return "", false
}

// Tracer records completed spans. It is safe for concurrent use, but —
// exactly like obs.Recorder — deterministic streams come from
// recording at deterministic points (under a component's own mutex or
// from a single goroutine) and from merging per-unit tracers in a
// fixed order. A nil *Tracer no-ops everywhere, so callers instrument
// unconditionally.
type Tracer struct {
	mu     sync.Mutex
	clock  obs.Clock // set at construction or via SetClock before the first span
	track  uint64    // immutable after construction; root-ID seed
	spans  []Span    // guarded by mu; completed spans in End order
	nroots uint64    // guarded by mu
	ltime  obs.Logical
}

// NewTracer builds a tracer for one track (a deterministic stream
// name: "soak/cluster/bursty", "txn", ...). clock supplies span
// timestamps; nil defaults to a tracer-owned logical counter that
// ticks on every read, so every span has nonzero duration.
func NewTracer(track string, clock obs.Clock) *Tracer {
	return &Tracer{clock: clock, track: fnvString(fnvOffset, track)}
}

// SetClock replaces the tracer's clock — for harnesses that construct
// the tracer before the clock's time source exists (e.g. a simulation
// engine). Call it before any span is recorded; no-op on nil.
func (t *Tracer) SetClock(c obs.Clock) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = c
}

// now reads the tracer's clock. The fallback logical clock ticks on
// every read so consecutive boundaries are strictly ordered.
func (t *Tracer) now() int64 {
	if t.clock != nil {
		return t.clock.Now()
	}
	return t.ltime.Tick()
}

// SpanRef is an open span. Refs are handed out by Begin/Child and
// closed by End; a nil *SpanRef no-ops everywhere (the instrument-
// unconditionally idiom), so tracing can be wired through code paths
// that only sometimes run under a tracer.
//
// A SpanRef is not safe for concurrent use: it belongs to the single
// logical thread of control whose work it measures.
type SpanRef struct {
	t      *Tracer
	id     SpanID
	parent SpanID
	name   string
	start  int64
	nchild uint64
	links  []SpanID
	attrs  []obs.KV
}

// Begin opens a root span. Returns nil (harmlessly) on a nil tracer.
func (t *Tracer) Begin(name string, attrs ...obs.KV) *SpanRef {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	idx := t.nroots
	t.nroots++
	t.mu.Unlock()
	return &SpanRef{
		t:     t,
		id:    deriveID(t.track, idx),
		name:  name,
		start: t.now(),
		attrs: append([]obs.KV(nil), attrs...),
	}
}

// ID returns the span's identifier (0 on nil).
func (s *SpanRef) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// Child opens a nested span. On a nil ref it returns nil.
func (s *SpanRef) Child(name string, attrs ...obs.KV) *SpanRef {
	if s == nil {
		return nil
	}
	idx := s.nchild
	s.nchild++
	return &SpanRef{
		t:      s.t,
		id:     deriveID(uint64(s.id), idx),
		parent: s.id,
		name:   name,
		start:  s.t.now(),
		attrs:  append([]obs.KV(nil), attrs...),
	}
}

// Link records a happens-before edge from the linked span to this one
// (the linked work completed before this span could proceed). Zero and
// duplicate IDs are dropped.
func (s *SpanRef) Link(id SpanID) {
	if s == nil || id == 0 {
		return
	}
	for _, l := range s.links {
		if l == id {
			return
		}
	}
	s.links = append(s.links, id)
}

// Annotate appends attributes to the open span.
func (s *SpanRef) Annotate(attrs ...obs.KV) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// Start returns the span's start time (0 on nil).
func (s *SpanRef) Start() int64 {
	if s == nil {
		return 0
	}
	return s.start
}

// EmitChild records a completed child span with explicit boundaries —
// for intervals whose extent is only known in hindsight, like the
// backoff gap between two retry attempts. The ID is derived exactly
// like Child's; the returned ID is 0 on a nil ref.
func (s *SpanRef) EmitChild(name string, start, end int64, attrs ...obs.KV) SpanID {
	if s == nil {
		return 0
	}
	idx := s.nchild
	s.nchild++
	id := deriveID(uint64(s.id), idx)
	s.t.record(Span{
		ID:     id,
		Parent: s.id,
		Name:   name,
		Start:  start,
		End:    end,
		Attrs:  append([]obs.KV(nil), attrs...),
	})
	return id
}

// End closes the span at the tracer clock's current time, records it,
// and returns the end timestamp (0 on nil). Extra attributes are
// appended after those given at Begin. Callers close each span exactly
// once.
func (s *SpanRef) End(attrs ...obs.KV) int64 {
	if s == nil {
		return 0
	}
	s.attrs = append(s.attrs, attrs...)
	end := s.t.now()
	s.t.record(Span{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		End:    end,
		Links:  s.links,
		Attrs:  s.attrs,
	})
	return end
}

// record appends a completed span.
func (t *Tracer) record(sp Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, sp)
}

// Spans returns a copy of the completed spans in recorded order (nil
// on a nil tracer).
//
//lint:ignore unreached observer: relaxd's engine tests read the span tree with it
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Append moves every completed span of src onto t in src's recorded
// order — the deterministic merge primitive, mirroring
// obs.Recorder.Append. Appending nil, or onto nil, no-ops; src is
// drained only when t is non-nil.
func (t *Tracer) Append(src *Tracer) {
	if t == nil || src == nil {
		return
	}
	src.mu.Lock()
	moved := src.spans
	src.spans = nil
	src.mu.Unlock()
	if len(moved) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, moved...)
}

// WriteJSONL writes the completed spans as JSON Lines in recorded
// order — the byte-stable stream cmd/relaxtrace consumes. A nil
// tracer writes nothing and returns nil.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf []byte
	for _, sp := range t.spans {
		buf = appendSpanJSON(buf[:0], sp)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// SimClock is a Lamport clock with a physical witness: every read
// raises the clock to at least the injected source's current value and
// then ticks, so consecutive reads are strictly increasing even while
// the source stands still. Wired to a discrete-event engine's
// simulated time (scaled to integer microseconds), it gives spans real
// sim-time extents — backoff waits show up as large jumps — while
// zero-duration protocol steps still get distinct, ordered boundaries.
type SimClock struct {
	mu   sync.Mutex
	phys func() int64 // immutable after construction
	last int64        // guarded by mu
}

// NewSimClock builds a SimClock over a physical source (nil source
// makes a pure ticking counter).
func NewSimClock(phys func() int64) *SimClock {
	return &SimClock{phys: phys}
}

// Now implements obs.Clock: max(source, last+1).
func (c *SimClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.last + 1
	if c.phys != nil {
		if p := c.phys(); p > t {
			t = p
		}
	}
	c.last = t
	return t
}
