package obs

import (
	"bytes"
	"testing"
)

func TestRecorderJSONL(t *testing.T) {
	r := NewRecorder()
	r.Record(1, "start", KV{K: "who", V: "T1"})
	r.Record(2, "stop")
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"t":1,"name":"start","who":"T1"}
{"t":2,"name":"stop"}
`
	if buf.String() != want {
		t.Fatalf("JSONL:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestJSONStringEscaping(t *testing.T) {
	cases := map[string]string{
		`plain`:          `"plain"`,
		"quote\"back":    `"quote\"back"`,
		`back\slash`:     `"back\\slash"`,
		"nl\ntab\t":      `"nl\ntab\t"`,
		"cr\r":           `"cr\r"`,
		"ctl\x01":        `"ctl\u0001"`,
		"unicode ∅ φ(C)": `"unicode ∅ φ(C)"`,
	}
	for in, want := range cases {
		if got := string(appendJSONString(nil, in)); got != want {
			t.Errorf("appendJSONString(%q) = %s, want %s", in, got, want)
		}
	}
}

func TestRecorderAppendOrder(t *testing.T) {
	a, b, sink := NewRecorder(), NewRecorder(), NewRecorder()
	a.Record(5, "a1")
	a.Record(6, "a2")
	b.Record(1, "b1")
	sink.Append(a)
	sink.Append(b)
	evs := sink.Events()
	if len(evs) != 3 || evs[0].Name != "a1" || evs[1].Name != "a2" || evs[2].Name != "b1" {
		t.Fatalf("append order wrong: %v", evs)
	}
	if a.Len() != 0 || b.Len() != 0 {
		t.Fatalf("sources not drained: %d, %d", a.Len(), b.Len())
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(1, "x")
	r.Append(NewRecorder())
	NewRecorder().Append(r)
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder should be empty")
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil recorder WriteJSONL: err=%v len=%d", err, buf.Len())
	}
}

func TestLogicalClock(t *testing.T) {
	var l Logical
	if l.Now() != 0 {
		t.Fatal("zero value should read 0")
	}
	if l.Tick() != 1 || l.Tick() != 2 {
		t.Fatal("Tick should advance by one")
	}
	l.Witness(10)
	if l.Now() != 10 {
		t.Fatalf("Witness should raise to 10, got %d", l.Now())
	}
	l.Witness(5) // lower: no-op
	if l.Now() != 10 {
		t.Fatalf("Witness must not lower the clock, got %d", l.Now())
	}
}

// Len returns the number of recorded events (0 on nil).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}
