package env

import (
	"bytes"
	"strings"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/obs"
)

func TestTraceRecordsDegradationEpisode(t *testing.T) {
	u := ssqUniverse()
	e, crash, _, repair := crashEnv(u)
	cm := &Combined{Env: e, Lat: ssqLattice(u)}

	enq := func(x int) Input { h := history.Enq(x); return Input{Op: &h} }
	deq := func(x int) Input { h := history.DeqOk(x); return Input{Op: &h} }
	inputs := []Input{
		enq(1),         // preferred behavior
		deq(1), deq(1), // second Deq rejected at the top
		EventInput(crash), // J lost
		enq(2),            // accepted under SSqueue_21
		deq(2), deq(2),    // stutter now tolerated
		EventInput(repair), // back to the top
		deq(2),             // rejected again: 2 was consumed
	}
	trace := cm.Trace(inputs)
	if len(trace) != len(inputs) {
		t.Fatalf("trace length %d", len(trace))
	}
	wantAccepted := []bool{true, true, false, true, true, true, true, true, false}
	for i, want := range wantAccepted {
		if trace[i].Accepted != want {
			t.Errorf("step %d accepted = %v, want %v", i, trace[i].Accepted, want)
		}
	}
	// Constraint states: full until the crash, {K} until repair, full
	// after.
	if trace[2].C != u.All() {
		t.Errorf("step 2 C = %v", u.Format(trace[2].C))
	}
	if trace[4].C != u.Named("K") {
		t.Errorf("step 4 C = %v", u.Format(trace[4].C))
	}
	if trace[8].C != u.All() {
		t.Errorf("step 8 C = %v", u.Format(trace[8].C))
	}

	episodes := Episodes(trace)
	if len(episodes) != 3 {
		t.Fatalf("episodes = %v", episodes)
	}
	if episodes[0].C != u.All() || episodes[1].C != u.Named("K") || episodes[2].C != u.All() {
		t.Errorf("episode constraint states wrong: %v", episodes)
	}
	if episodes[1].From != 3 || episodes[1].To != 6 {
		t.Errorf("degraded episode span = %d..%d", episodes[1].From, episodes[1].To)
	}

	text := FormatTrace(u, trace)
	if !strings.Contains(text, "✗") || !strings.Contains(text, "{K}") || !strings.Contains(text, "crash") {
		t.Errorf("FormatTrace output:\n%s", text)
	}
}

// A rejected operation that carries an event still moves the
// environment.
func TestTraceRejectedOpStillMovesEnvironment(t *testing.T) {
	u := ssqUniverse()
	drop := Event{Name: "drop"}
	e := &Environment{
		Init: u.All(),
		Delta: func(c lattice.Set, ev Event) lattice.Set {
			return c.Without(u.Index("J"))
		},
	}
	cm := &Combined{Env: e, Lat: ssqLattice(u)}
	// Deq on an empty queue is rejected, but its event drops J anyway.
	bad := opInput(history.DeqOk(9), drop, isDeq)
	trace := cm.Trace([]Input{bad})
	if trace[0].Accepted {
		t.Fatalf("impossible Deq accepted")
	}
	if trace[0].C != u.Named("K") {
		t.Errorf("environment did not move: %v", u.Format(trace[0].C))
	}
}

func TestEpisodesEmpty(t *testing.T) {
	if got := Episodes(nil); got != nil {
		t.Errorf("Episodes(nil) = %v", got)
	}
}

// TestRecordEpisodes pins the journal form of a degradation story: one
// env.episode event per constraint run, stamped with the starting step
// index, carrying φ(C)'s behavior name — and pins the exact JSONL
// bytes, which must not drift (CI diffs them across runs).
func TestRecordEpisodes(t *testing.T) {
	u := ssqUniverse()
	e, crash, _, repair := crashEnv(u)
	lat := ssqLattice(u)
	cm := &Combined{Env: e, Lat: lat}
	enq := func(x int) Input { h := history.Enq(x); return Input{Op: &h} }
	deq := func(x int) Input { h := history.DeqOk(x); return Input{Op: &h} }
	trace := cm.Trace([]Input{
		enq(1), deq(1),
		EventInput(crash),
		enq(2), deq(2), deq(2),
		EventInput(repair),
		enq(3),
	})

	rec := obs.NewRecorder()
	RecordEpisodes(rec, u, lat, trace)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"t":0,"name":"env.episode","constraints":"{J, K}","behavior":"SSqueue_1_1","from":"0","to":"1"}
{"t":2,"name":"env.episode","constraints":"{K}","behavior":"SSqueue_2_1","from":"2","to":"5"}
{"t":6,"name":"env.episode","constraints":"{J, K}","behavior":"SSqueue_1_1","from":"6","to":"7"}
`
	if buf.String() != want {
		t.Errorf("episode journal:\n%swant:\n%s", buf.String(), want)
	}

	// A nil recorder is a no-op, not a panic.
	RecordEpisodes(nil, u, lat, trace)
}

func TestTraceStepDescribe(t *testing.T) {
	h := history.Enq(1)
	ev := Event{Name: "crash"}
	cases := []struct {
		in   Input
		want string
	}{
		{Input{}, "ε"},
		{Input{Op: &h}, "Enq(1)/Ok()"},
		{Input{Event: &ev}, "crash"},
		{Input{Event: &ev, Op: &h}, "crash/Enq(1)/Ok()"},
	}
	for _, c := range cases {
		if got := (TraceStep{Input: c.in}).describe(); got != c.want {
			t.Errorf("describe = %q, want %q", got, c.want)
		}
	}
}
