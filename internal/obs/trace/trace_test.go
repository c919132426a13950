package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"relaxlattice/internal/obs"
)

// buildStream emits a deterministic little span forest on t: n root
// operations, each with two protocol-step children and a link from the
// second child to the first. prev seeds the cross-operation link chain
// and the final link is returned, so split builds reproduce a serial
// one.
func buildStream(t *Tracer, n int, prev SpanID) SpanID {
	for i := 0; i < n; i++ {
		op := t.Begin("op", obs.KV{K: "rung", V: "Q1Q2"})
		s1 := op.Child("step1.view")
		s1.End()
		s2 := op.Child("step2.quorum")
		s2.Link(s1.ID())
		s2.Link(prev)
		s2.End()
		prev = s2.ID()
		op.End()
	}
	return prev
}

func TestSpanIDDeterminism(t *testing.T) {
	a, b := NewTracer("trk", nil), NewTracer("trk", nil)
	buildStream(a, 3, 0)
	buildStream(b, 3, 0)
	sa, sb := a.Spans(), b.Spans()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("same construction produced different spans:\n%v\n%v", sa, sb)
	}
	other := NewTracer("other", nil)
	buildStream(other, 1, 0)
	if other.Spans()[0].ID == sa[0].ID {
		t.Fatalf("different tracks produced the same root ID")
	}
}

func TestTracerAppendMergeStable(t *testing.T) {
	// Serial: one tracer runs both units in order.
	serial := NewTracer("merge", nil)
	buildStream(serial, 2, 0)

	// Parallel-shaped: per-unit scratch tracers merged in unit order.
	// Root indices are per-tracer, so scratch tracks must be distinct
	// per unit — the same discipline the soak harness uses.
	main := NewTracer("merge", nil)
	u0 := NewTracer("merge", nil)
	prev := buildStream(u0, 1, 0)
	u1 := NewTracer("merge", nil)
	// Advance u1's root index so its roots continue the serial numbering.
	u1.nroots = 1
	u1.ltime.Witness(u0.ltime.Now())
	buildStream(u1, 1, prev)
	main.Append(u0)
	main.Append(u1)

	var bs, bm bytes.Buffer
	if err := serial.WriteJSONL(&bs); err != nil {
		t.Fatal(err)
	}
	if err := main.WriteJSONL(&bm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bs.Bytes(), bm.Bytes()) {
		t.Fatalf("merged stream differs from serial stream:\n%s\n---\n%s", bs.Bytes(), bm.Bytes())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer("rt", nil)
	buildStream(tr, 3, 0)
	want := tr.Spans()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %v\ngot  %v", want, got)
	}
}

func TestSimClockStrictlyIncreasing(t *testing.T) {
	phys := int64(0)
	c := NewSimClock(func() int64 { return phys })
	prev := c.Now()
	for i := 0; i < 10; i++ {
		if v := c.Now(); v <= prev {
			t.Fatalf("clock not strictly increasing: %d after %d", v, prev)
		} else {
			prev = v
		}
	}
	phys = 1000
	if v := c.Now(); v != 1000 {
		t.Fatalf("clock did not jump to physical witness: %d", v)
	}
	phys = 1000
	if v := c.Now(); v != 1001 {
		t.Fatalf("clock not strictly increasing past witness: %d", v)
	}
}

func TestAnalyzeCriticalPath(t *testing.T) {
	// op [0,100] with rung Q1; children step1 [10,30], step2 [40,90].
	// Critical path: op self = (100-90)+(40-30)+(10-0) = 30,
	// step2 = 50, step1 = 20.
	spans := []Span{
		{ID: 2, Parent: 1, Name: "step1", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "step2", Start: 40, End: 90},
		{ID: 1, Name: "op", Start: 0, End: 100, Attrs: []obs.KV{{K: "rung", V: "Q1"}}},
	}
	an := Analyze(spans)
	if an.Spans != 3 || an.Roots != 1 || an.Orphans != 0 {
		t.Fatalf("bad shape: %+v", an)
	}
	if an.Wall != 100 || an.Critical != 100 {
		t.Fatalf("wall=%d critical=%d, want 100/100", an.Wall, an.Critical)
	}
	byName := map[string]NameStat{}
	for _, s := range an.ByName {
		byName[s.Name] = s
	}
	if s := byName["op"]; s.Self != 30 || s.Critical != 30 || s.Total != 100 {
		t.Fatalf("op stat: %+v", s)
	}
	if s := byName["step1"]; s.Self != 20 || s.Critical != 20 {
		t.Fatalf("step1 stat: %+v", s)
	}
	if s := byName["step2"]; s.Self != 50 || s.Critical != 50 {
		t.Fatalf("step2 stat: %+v", s)
	}
	if len(an.ByRung) != 1 || an.ByRung[0].Rung != "Q1" || an.ByRung[0].Critical != 100 {
		t.Fatalf("rung attribution: %+v", an.ByRung)
	}
	// JSON is deterministic.
	j1 := an.AppendJSON(nil)
	j2 := Analyze(spans).AppendJSON(nil)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("analysis JSON not deterministic")
	}
	var obj map[string]any
	if err := json.Unmarshal(j1, &obj); err != nil {
		t.Fatalf("analysis JSON invalid: %v\n%s", err, j1)
	}
}

func TestAnalyzeOverlapAndOrphan(t *testing.T) {
	spans := []Span{
		{ID: 5, Parent: 99, Name: "lost", Start: 0, End: 10},
		{ID: 1, Name: "op", Start: 0, End: 50},
		{ID: 2, Parent: 1, Name: "a", Start: 0, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
	}
	an := Analyze(spans)
	if an.Orphans != 1 {
		t.Fatalf("orphans = %d, want 1", an.Orphans)
	}
	// op covered entirely by children union [0,50]: self 0.
	byName := map[string]NameStat{}
	for _, s := range an.ByName {
		byName[s.Name] = s
	}
	if s := byName["op"]; s.Self != 0 {
		t.Fatalf("op self = %d, want 0", s.Self)
	}
	// Critical sweep: b covers [20,50], then a's part before 20 → [0,20].
	if s := byName["b"]; s.Critical != 30 {
		t.Fatalf("b critical = %d, want 30", s.Critical)
	}
	if s := byName["a"]; s.Critical != 20 {
		t.Fatalf("a critical = %d, want 20", s.Critical)
	}
	if an.Critical != 50+10 { // op tree + orphan tree
		t.Fatalf("critical = %d, want 60", an.Critical)
	}
}

func TestChromeExportSchema(t *testing.T) {
	tr := NewTracer("chrome", nil)
	buildStream(tr, 2, 0)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(doc.TraceEvents) != tr.Len() {
		t.Fatalf("exported %d events, want %d", len(doc.TraceEvents), tr.Len())
	}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
		if ev["ph"] != "X" {
			t.Fatalf("event %d ph=%v, want X", i, ev["ph"])
		}
		args, ok := ev["args"].(map[string]any)
		if !ok || args["id"] == "" {
			t.Fatalf("event %d args missing id: %v", i, ev)
		}
	}
	// Determinism.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("chrome export not deterministic")
	}
}

// Len returns the number of completed spans (0 on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
