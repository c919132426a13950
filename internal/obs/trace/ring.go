package trace

import (
	"io"
	"strconv"
	"sync"

	"relaxlattice/internal/obs"
)

// FlightRecorder is the degradation flight recorder: a bounded ring of
// the most recent spans and journal events, kept so that when the
// online relaxation checker reports a Violation, the refutation ships
// with its causal story — the protocol steps, ladder moves, and
// episodes that led up to the offending operation — without retaining
// the unbounded stream an indefinite-horizon run would otherwise
// accumulate.
//
// Attach it to a Tracer with SetMirror and to an obs.Recorder with
// SetObserver(fr.ObserveEvent). It is safe for concurrent use; in the
// deterministic soak harness every observation happens at a
// deterministic point, so dumps are byte-stable.
type FlightRecorder struct {
	mu      sync.Mutex
	spans   []Span      // guarded by mu; ring, capacity len(spans) once full
	events  []obs.Event // guarded by mu
	spanCap int         // immutable after construction
	evCap   int         // immutable after construction
	nspans  uint64      // guarded by mu; total spans observed
	nevents uint64      // guarded by mu; total events observed
}

// NewFlightRecorder builds a recorder keeping the most recent spanCap
// spans and eventCap events (each at least 1).
func NewFlightRecorder(spanCap, eventCap int) *FlightRecorder {
	if spanCap < 1 {
		spanCap = 1
	}
	if eventCap < 1 {
		eventCap = 1
	}
	return &FlightRecorder{spanCap: spanCap, evCap: eventCap}
}

// ObserveSpan implements Mirror: keep the span, evicting the oldest
// once the ring is full.
func (f *FlightRecorder) ObserveSpan(sp Span) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.spans) < f.spanCap {
		f.spans = append(f.spans, sp)
	} else {
		f.spans[f.nspans%uint64(f.spanCap)] = sp
	}
	f.nspans++
}

// ObserveEvent mirrors one journal event into the ring (the
// obs.Recorder.SetObserver hook).
func (f *FlightRecorder) ObserveEvent(e obs.Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.events) < f.evCap {
		f.events = append(f.events, e)
	} else {
		f.events[f.nevents%uint64(f.evCap)] = e
	}
	f.nevents++
}

// orderedSpans unrolls the ring. Caller holds mu.
func (f *FlightRecorder) orderedSpans() []Span {
	if f.nspans <= uint64(len(f.spans)) {
		return append([]Span(nil), f.spans...)
	}
	head := int(f.nspans % uint64(f.spanCap))
	out := make([]Span, 0, len(f.spans))
	out = append(out, f.spans[head:]...)
	return append(out, f.spans[:head]...)
}

// orderedEvents unrolls the ring. Caller holds mu.
func (f *FlightRecorder) orderedEvents() []obs.Event {
	if f.nevents <= uint64(len(f.events)) {
		return append([]obs.Event(nil), f.events...)
	}
	head := int(f.nevents % uint64(f.evCap))
	out := make([]obs.Event, 0, len(f.events))
	out = append(out, f.events[head:]...)
	return append(out, f.events[:head]...)
}

// WriteDump writes the flight-recorder contents as JSONL: one header
// object carrying the given attributes (the violation's kind, step,
// and operation) plus retained/seen counts, then every retained event
// ({"flight":"event",...}) and span ({"flight":"span",...}), each
// oldest first. The dump is the pinned artifact a refuted soak run
// ships alongside its nonzero exit. A nil recorder writes nothing.
func (f *FlightRecorder) WriteDump(w io.Writer, header ...obs.KV) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	spans := f.orderedSpans()
	events := f.orderedEvents()
	nspans, nevents := f.nspans, f.nevents
	f.mu.Unlock()

	buf := []byte(`{"flight":"header"`)
	for _, kv := range header {
		buf = append(buf, ',')
		buf = obs.AppendJSONString(buf, kv.K)
		buf = append(buf, ':')
		buf = obs.AppendJSONString(buf, kv.V)
	}
	buf = append(buf, `,"spans_kept":`...)
	buf = strconv.AppendInt(buf, int64(len(spans)), 10)
	buf = append(buf, `,"spans_seen":`...)
	buf = strconv.AppendUint(buf, nspans, 10)
	buf = append(buf, `,"events_kept":`...)
	buf = strconv.AppendInt(buf, int64(len(events)), 10)
	buf = append(buf, `,"events_seen":`...)
	buf = strconv.AppendUint(buf, nevents, 10)
	buf = append(buf, '}', '\n')
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for _, e := range events {
		buf = append([]byte(`{"flight":"event","body":`), e.AppendJSON(nil)...)
		buf = append(buf, '}', '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	for _, sp := range spans {
		buf = append([]byte(`{"flight":"span","body":`), appendSpanJSON(nil, sp)...)
		buf = append(buf, '}', '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
