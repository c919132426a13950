package main

import (
	"bytes"
	"io"
	"strconv"
	"sync"
	"time"

	"relaxlattice/internal/cluster"
	"relaxlattice/internal/history"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/obs/trace"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/relaxd"
	"relaxlattice/internal/value"
)

// The traced half of a run wraps relaxd's public seams and keeps
// wall-clock marks in memory: Transport.RoundTrip, ClientConfig.Respond
// and Audit, ClientHooks.AfterStep1/AfterStep2. Nothing inside relaxd
// changes; in-program spans are a later issue. The marks partition
// each Execute into self times that sum to its total by construction.
//
// What is retained holds no pointers: the process collects garbage a
// hundred times a second on short-history, and every pointer kept per
// traced operation would be marked again on each of those cycles, at a
// cost the plain half of the run would pay too.

// maxRoundTrips bounds the round trips recorded per operation: a
// GetLog and an Append per site of the widest service.
const maxRoundTrips = 2 * 5

// rtTrace is one RoundTrip.
type rtTrace struct {
	start, end int64
	entries    int32 // entries carried, request plus reply
	reqBytes   int32
	respBytes  int32
	site       int16
	typ        byte
	failed     bool
}

// outcomes indexes the outcome names an opTrace stores by position.
var outcomes = []string{outcomeOK, outcomeNoResponse, outcomeUnavailable, outcomeNoAck, outcomeError}

func outcomeIndex(name string) uint8 {
	for i, o := range outcomes {
		if o == name {
			return uint8(i)
		}
	}
	return uint8(len(outcomes) - 1)
}

// opTrace is one traced Execute; times are ns since the tracer epoch.
type opTrace struct {
	start, end int64
	afterStep1 int64
	afterStep2 int64
	respond    [2]int64
	audit      [2]int64
	rts        [maxRoundTrips]rtTrace
	nrts       uint8
	outcome    uint8 // index into outcomes
	rung       int8  // index into rungs, -1 for the base assignment
	deq        bool
	// sized marks the operations whose messages were also measured in
	// bytes (one in sizeEvery).
	sized bool
}

func (o *opTrace) roundTrips() []rtTrace { return o.rts[:o.nrts] }

func (o *opTrace) opName() string {
	if o.deq {
		return history.NameDeq
	}
	return history.NameEnq
}

func (o *opTrace) rungName() string {
	if o.rung < 0 {
		return "base"
	}
	return rungs[o.rung]
}

// sizeEvery is how often a traced operation's messages are encoded a
// second time to count their bytes. Sizing every operation would cost
// a long-history run most of its tracing overhead budget; the per-op
// byte counts are means over the sized operations.
const sizeEvery = 16

// opTracer collects the traces of one run.
type opTracer struct {
	track string
	epoch time.Time
	// spans is handed to ClientConfig.Spans: relaxd's own op and step
	// spans on the same wall clock. flush moves them into jsonl.
	spans *trace.Tracer
	jsonl bytes.Buffer

	mu     sync.Mutex // guards cur.rts and cur.nrts: fanout round trips run in parallel
	cur    opTrace
	active bool // an Execute is in flight; guarded by mu
	ops    []opTrace
}

func newOpTracer(track string) *opTracer {
	t := &opTracer{track: track, epoch: time.Now()}
	t.spans = trace.NewTracer(track, obs.ClockFunc(t.now))
	return t
}

func (t *opTracer) now() int64 { return int64(time.Since(t.epoch)) }

// flush serializes the spans relaxd recorded so far and drops them.
// Callers flush between units, outside any timed loop.
func (t *opTracer) flush() error {
	drained := trace.NewTracer("", nil)
	drained.Append(t.spans)
	return drained.WriteJSONL(&t.jsonl)
}

// tracedTransport times every RoundTrip and sizes its two messages
// with the wire codec.
type tracedTransport struct {
	t     *opTracer
	inner relaxd.Transport
	// scratch holds one encode buffer per site; a fanout has at most
	// one round trip per site in flight.
	scratch [][]byte
}

func (tt *tracedTransport) Sites() int { return tt.inner.Sites() }

func (tt *tracedTransport) Concurrent() bool {
	ct, ok := tt.inner.(relaxd.ConcurrentTransport)
	return ok && ct.Concurrent()
}

func (tt *tracedTransport) RoundTrip(site int, req relaxd.Message) (relaxd.Message, error) {
	rt := rtTrace{site: int16(site), typ: req.Type, start: tt.t.now()}
	resp, err := tt.inner.RoundTrip(site, req)
	rt.end = tt.t.now()
	rt.failed = err != nil
	rt.entries = int32(len(req.Entries) + len(resp.Entries) + len(resp.Wal))
	tt.t.mu.Lock()
	record, sized := tt.t.active, tt.t.cur.sized
	tt.t.mu.Unlock()
	if !record {
		return resp, err
	}
	if sized && site >= 0 && site < len(tt.scratch) {
		rt.reqBytes, tt.scratch[site] = wireSize(tt.scratch[site], req)
		if err == nil {
			rt.respBytes, tt.scratch[site] = wireSize(tt.scratch[site], resp)
		}
	}
	tt.t.mu.Lock()
	if cur := &tt.t.cur; int(cur.nrts) < len(cur.rts) {
		cur.rts[cur.nrts] = rt
		cur.nrts++
	}
	tt.t.mu.Unlock()
	return resp, err
}

// wireSize encodes m into buf and returns the body length (0 for a
// message the codec refuses) and the buffer for reuse.
func wireSize(buf []byte, m relaxd.Message) (int32, []byte) {
	b, err := relaxd.AppendMessage(buf[:0], m)
	if err != nil {
		return 0, buf
	}
	return int32(len(b)), b
}

// timedAudit times the live checker's ObserveOp.
type timedAudit struct {
	t     *opTracer
	inner cluster.Audit
}

func (a timedAudit) ObserveOp(op history.Op) {
	t0 := a.t.now()
	a.inner.ObserveOp(op)
	a.t.cur.audit = [2]int64{t0, a.t.now()}
}

// tracedClient is a relaxd.Client with every seam wrapped. Except in
// RoundTrip, the marks are written by the goroutine that called
// execute, while no round trip is in flight.
type tracedClient struct {
	t      *opTracer
	client *relaxd.Client
}

// newTracedClient builds the decorated client over inner.
func (s *service) newTracedClient(t *opTracer, inner relaxd.Transport) *tracedClient {
	cfg := s.clientConfig(&tracedTransport{t: t, inner: inner, scratch: make([][]byte, inner.Sites())})
	respond := cfg.Respond
	cfg.Respond = func(st value.Value, inv history.Invocation) (history.Op, bool) {
		t0 := t.now()
		op, ok := respond(st, inv)
		t.cur.respond = [2]int64{t0, t.now()}
		return op, ok
	}
	if cfg.Audit != nil {
		cfg.Audit = timedAudit{t: t, inner: cfg.Audit}
	}
	cfg.Spans = t.spans
	c := relaxd.NewClient(cfg, s.takeClock())
	c.Hooks.AfterStep1 = func() { t.cur.afterStep1 = t.now() }
	c.Hooks.AfterStep2 = func() { t.cur.afterStep2 = t.now() }
	return &tracedClient{t: t, client: c}
}

func (tc *tracedClient) execute(inv history.Invocation, gate quorum.Assignment, rung string) (history.Op, error) {
	t := tc.t
	cur := opTrace{deq: inv.Name == history.NameDeq, rung: -1, sized: len(t.ops)%sizeEvery == 0}
	for i, r := range rungs {
		if r == rung {
			cur.rung = int8(i)
		}
	}
	t.mu.Lock()
	t.cur = cur
	t.active = true
	t.mu.Unlock()
	t.cur.start = t.now()
	op, err := plainClient{tc.client}.execute(inv, gate, rung)
	t.cur.end = t.now()
	t.cur.outcome = outcomeIndex(outcomeOf(err))
	t.mu.Lock()
	t.active = false
	t.ops = append(t.ops, t.cur)
	t.mu.Unlock()
	return op, err
}

// fanout returns the bounds of the round trips of one type: first
// sent, last answered, and the skew between the fastest and slowest
// successful reply.
func (o *opTrace) fanout(typ byte) (first, last, skew int64, ok bool) {
	var minEnd, maxEnd int64
	answered := 0
	for _, rt := range o.roundTrips() {
		if rt.typ != typ {
			continue
		}
		if !ok || rt.start < first {
			first = rt.start
		}
		if !ok || rt.end > last {
			last = rt.end
		}
		ok = true
		if rt.failed {
			continue
		}
		if answered == 0 || rt.end < minEnd {
			minEnd = rt.end
		}
		if answered == 0 || rt.end > maxEnd {
			maxEnd = rt.end
		}
		answered++
	}
	return first, last, maxEnd - minEnd, ok
}

// selfTimes splits an operation's total into the client layer's
// stages, in ns.
type selfTimes struct {
	step1, view, respond, step3Prep, step3, audit, unattributed, total int64
}

// staged is the part of the total the five client stages cover.
func (st selfTimes) staged() int64 {
	return st.step1 + st.view + st.respond + st.step3Prep + st.step3
}

// selfTimes reports ok false for an operation that did not run all
// three steps.
func (o *opTrace) selfTimes() (selfTimes, bool) {
	a, b, _, ok1 := o.fanout(relaxd.MsgGetLog)
	e, f, _, ok3 := o.fanout(relaxd.MsgAppend)
	if !ok1 || !ok3 || o.afterStep1 == 0 || o.afterStep2 == 0 {
		return selfTimes{}, false
	}
	st := selfTimes{
		step1:     b - a,
		view:      o.afterStep1 - b,
		respond:   o.respond[1] - o.respond[0],
		step3Prep: e - o.afterStep2,
		step3:     f - e,
		audit:     o.audit[1] - o.audit[0],
		total:     o.end - o.start,
	}
	st.unattributed = st.total - st.staged() - st.audit
	return st, true
}

const (
	nsPerMS = 1e6
	nsPerUS = 1e3
)

// metrics derives the client.* and transport.* metrics, and the
// checker's observe time, from the collected traces.
func (t *opTracer) metrics(m metricSet) {
	var (
		step1, view, respond, prep, step3, unattr, observe samples
		enq, deq, all                                      samples
		getlogRT, appendRT, skews                          samples
		rts, entries, reqBytes, respBytes, rtErrors        int
		noResponse, sized                                  int
	)
	if len(t.ops) == 0 {
		return
	}
	for i := range t.ops {
		o := &t.ops[i]
		if o.sized {
			sized++
		}
		for _, rt := range o.roundTrips() {
			rts++
			entries += int(rt.entries)
			reqBytes += int(rt.reqBytes)
			respBytes += int(rt.respBytes)
			if rt.failed {
				rtErrors++
				continue
			}
			ms := float64(rt.end-rt.start) / nsPerMS
			switch rt.typ {
			case relaxd.MsgGetLog:
				getlogRT = append(getlogRT, ms)
			case relaxd.MsgAppend:
				appendRT = append(appendRT, ms)
			}
		}
		for _, typ := range []byte{relaxd.MsgGetLog, relaxd.MsgAppend} {
			if _, _, skew, ok := o.fanout(typ); ok {
				skews = append(skews, float64(skew)/nsPerMS)
			}
		}
		switch outcomes[o.outcome] {
		case outcomeNoResponse:
			noResponse++
		case outcomeOK:
		default:
			continue
		}
		ms := float64(o.end-o.start) / nsPerMS
		all = append(all, ms)
		if o.deq {
			deq = append(deq, ms)
		} else {
			enq = append(enq, ms)
		}
		if st, ok := o.selfTimes(); ok {
			step1 = append(step1, float64(st.step1)/nsPerMS)
			view = append(view, float64(st.view)/nsPerMS)
			respond = append(respond, float64(st.respond)/nsPerUS)
			prep = append(prep, float64(st.step3Prep)/nsPerMS)
			step3 = append(step3, float64(st.step3)/nsPerMS)
			unattr = append(unattr, float64(st.unattributed)/nsPerMS)
			observe = append(observe, float64(st.audit)/nsPerUS)
		}
	}
	m.p50("client.step1_ms_p50", step1)
	m.p50("client.view_ms_p50", view)
	m.p50("client.respond_us_p50", respond)
	m.p50("client.step3_prep_ms_p50", prep)
	m.p50("client.step3_ms_p50", step3)
	m.p50("client.unattributed_ms_p50", unattr)
	m.p50("client.enq_p50_ms", enq)
	m.p50("client.deq_p50_ms", deq)
	m.set("client.op_p99_ms", all.percentile(99), len(all))
	m.set("client.op_max_ms", all.max(), len(all))
	m.set("client.no_response", float64(noResponse), 0)
	m.p50("relaxcheck.observe_us_p50", observe)

	m.p50("transport.getlog_rt_ms_p50", getlogRT)
	m.p50("transport.append_rt_ms_p50", appendRT)
	m.p50("transport.fanout_skew_ms_p50", skews)
	m.set("transport.errors", float64(rtErrors), 0)
	n := float64(len(t.ops))
	m.set("transport.roundtrips_per_op", float64(rts)/n, len(t.ops))
	m.set("transport.entries_shipped_per_op", float64(entries)/n, len(t.ops))
	m.set("transport.req_bytes_per_op", float64(reqBytes)/float64(sized), sized)
	m.set("transport.resp_bytes_per_op", float64(respBytes)/float64(sized), sized)
}

// attributedShare is the part of the acknowledged operations' total
// time the five client stages account for.
func (t *opTracer) attributedShare() float64 {
	var staged, total int64
	for i := range t.ops {
		if st, ok := t.ops[i].selfTimes(); ok && outcomes[t.ops[i].outcome] == outcomeOK {
			staged += st.staged()
			total += st.total
		}
	}
	if total == 0 {
		return 0
	}
	return float64(staged) / float64(total)
}

// writeSpans writes relaxd's own spans and the decorators' marks as
// one JSONL stream cmd/relaxtrace loads. The marks are replayed into a
// second tracer after the run, on a clock that reads whatever mark is
// being emitted, so no span is allocated while operations are timed.
func (t *opTracer) writeSpans(w io.Writer) error {
	if err := t.flush(); err != nil {
		return err
	}
	if _, err := w.Write(t.jsonl.Bytes()); err != nil {
		return err
	}
	var at int64
	marks := trace.NewTracer(t.track+"/marks", obs.ClockFunc(func() int64 { return at }))
	emitFanout := func(parent *trace.SpanRef, o *opTrace, name string, typ byte) {
		first, last, _, ok := o.fanout(typ)
		if !ok {
			return
		}
		at = first
		fan := parent.Child(name)
		for _, rt := range o.roundTrips() {
			if rt.typ == typ {
				fan.EmitChild("bench.roundtrip", rt.start, rt.end,
					obs.KV{K: "site", V: strconv.Itoa(int(rt.site))},
					obs.KV{K: "entries", V: strconv.Itoa(int(rt.entries))},
					obs.KV{K: "failed", V: strconv.FormatBool(rt.failed)})
			}
		}
		at = last
		fan.End()
	}
	for i := range t.ops {
		o := &t.ops[i]
		at = o.start
		root := marks.Begin("bench.op",
			obs.KV{K: "op", V: o.opName()}, obs.KV{K: "rung", V: o.rungName()}, obs.KV{K: "outcome", V: outcomes[o.outcome]})
		emitFanout(root, o, "bench.step1.fanout", relaxd.MsgGetLog)
		if _, last, _, ok := o.fanout(relaxd.MsgGetLog); ok && o.afterStep1 != 0 {
			root.EmitChild("bench.view", last, o.afterStep1)
		}
		if o.respond[1] != 0 {
			root.EmitChild("bench.respond", o.respond[0], o.respond[1])
		}
		if first, _, _, ok := o.fanout(relaxd.MsgAppend); ok && o.afterStep2 != 0 {
			root.EmitChild("bench.step3.prep", o.afterStep2, first)
		}
		emitFanout(root, o, "bench.step3.fanout", relaxd.MsgAppend)
		if o.audit[1] != 0 {
			root.EmitChild("bench.audit", o.audit[0], o.audit[1])
		}
		at = o.end
		root.End()
	}
	return marks.WriteJSONL(w)
}
