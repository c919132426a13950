package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/relaxcheck"
)

// certify judges a recorded history at claim c's rung of the lattice
// for w dequeuers.
func certify(c Claim, h history.History, w int) *relaxcheck.Violation {
	lat := c.Lattice(w)
	return relaxcheck.Certify(lat, c.Levels(lat), c.Level, h)
}

// certRun drives a structure concurrently and certifies the recorded
// history at its claimed rung. This is the conformance suite the
// lattice turns into: the claim is about *observed* histories, and
// every recorded run must land at (or above) the claimed element.
func certRun(t *testing.T, name string, mk func(j *Journal) RelaxedQueue, workers, opsPerWorker int) {
	t.Helper()
	t.Run(fmt.Sprintf("%s/w=%d", name, workers), func(t *testing.T) {
		j := NewJournal(workers * opsPerWorker)
		q := mk(j)
		RunWorkload(q, workers, opsPerWorker)
		if d := j.Dropped(); d != 0 {
			t.Fatalf("journal dropped %d ops; size the journal to the run", d)
		}
		h := j.History()
		if len(h) == 0 {
			t.Fatal("empty recorded history")
		}
		if v := certify(q.Claim(), h, workers); v != nil {
			t.Fatalf("%s history of %d ops rejected at claimed rung %q: %v",
				q.Name(), len(h), q.Claim().Level, v)
		}
	})
}

// Every structure's recorded histories are accepted at its claimed
// lattice element, single-threaded and concurrent.
func TestCertifyClaims(t *testing.T) {
	cases := []struct {
		name string
		mk   func(j *Journal) RelaxedQueue
	}{
		{"strict", func(j *Journal) RelaxedQueue { return NewStrict(j) }},
		{"seg-k4", func(j *Journal) RelaxedQueue { return NewSegQueue(4, 5, j) }},
		{"seg-k64", func(j *Journal) RelaxedQueue { return NewSegQueue(64, 5, j) }},
		{"dup", func(j *Journal) RelaxedQueue { return NewDupQueue(j) }},
		{"lanepq", func(j *Journal) RelaxedQueue { return NewLanePQ(5, 8, j) }},
		{"strictpq", func(j *Journal) RelaxedQueue { return NewStrictPQ(j) }},
	}
	for _, c := range cases {
		certRun(t, c.name, c.mk, 1, 4000)
		certRun(t, c.name, c.mk, 4, 2500)
	}
}

// The deliberately over-strong claim: the k-segment queue claimed at
// strict FIFO. The lane cursors make the refuting schedule
// deterministic — Enq(1)·Enq(2)·Deq()/Ok(2)·Deq()/Ok(1) — and
// relaxcheck pins the violation at step 3 with the concrete witness
// operation. The same history is accepted at the structure's honest
// rung, so the refutation is exactly the FIFO constraint failing, not
// a broken queue.
func TestCertifyRefutesOverstrongFIFOClaim(t *testing.T) {
	j := NewJournal(16)
	q := NewSegQueue(2, 2, j)
	if first, second := segWitnessSchedule(q); first != 2 || second != 1 {
		t.Fatalf("witness schedule broke: served %d then %d, want 2 then 1", first, second)
	}
	h := j.History()
	wantH := history.History{
		history.Enq(1), history.Enq(2),
		history.DeqOk(2), history.DeqOk(1),
	}
	if len(h) != len(wantH) {
		t.Fatalf("recorded %d ops, want %d", len(h), len(wantH))
	}
	for i := range h {
		if !h[i].Equal(wantH[i]) {
			t.Fatalf("recorded[%d] = %v, want %v", i, h[i], wantH[i])
		}
	}

	// Honest claim: accepted.
	if v := certify(q.Claim(), h, 1); v != nil {
		t.Fatalf("honest claim %q rejected the witness history: %v", q.Claim().Level, v)
	}

	// Over-strong claim: refuted with the pinned witness.
	over := q.Claim()
	over.Level = LevelFIFO
	v := certify(over, h, 1)
	if v == nil {
		t.Fatal("strict-FIFO claim for the k-segment queue was not refuted")
	}
	if v.Kind != relaxcheck.KindClaim {
		t.Fatalf("violation kind = %q, want %q", v.Kind, relaxcheck.KindClaim)
	}
	if v.Step != 3 {
		t.Fatalf("violation step = %d, want 3", v.Step)
	}
	if !v.Op.Equal(history.DeqOk(2)) {
		t.Fatalf("violation op = %v, want %v", v.Op, history.DeqOk(2))
	}
	if want := "fifo={X, R}"; v.Claim != want {
		t.Fatalf("violation claim = %q, want %q", v.Claim, want)
	}
}

// The duplicating queue's honest claim would also refute a strict
// claim the moment a stutter lands — pin that with a hand-built
// history rather than waiting on a racy schedule.
func TestCertifyRefutesExclusiveClaimForDup(t *testing.T) {
	q := NewDupQueue(nil)
	c := q.Claim()
	h := history.History{
		history.Enq(1), history.Enq(2),
		history.DeqOk(1), history.DeqOk(1), // a stutter: two racers returned the front
		history.DeqOk(2),
	}
	// Accepted at the honest {R} rung for w ≥ 2 (stutter bound w).
	if v := certify(c, h, 2); v != nil {
		t.Fatalf("stutter history rejected at honest rung: %v", v)
	}
	// Refuted at the exclusive rung: elements must not repeat.
	over := c
	over.Level = LevelExclusive
	v := certify(over, h, 2)
	if v == nil {
		t.Fatal("exclusive claim survived a duplicated dequeue")
	}
	if v.Step != 4 || !v.Op.Equal(history.DeqOk(1)) {
		t.Fatalf("violation at step %d op %v, want step 4 op %v", v.Step, v.Op, history.DeqOk(1))
	}
}

// The lane PQ refutes a strict claim by construction too: serving a
// lower-priority element while a better one is pending violates the
// strict-PQ rung but sits inside OPQueue. Driven through the real
// structure — one shard, batch 1, so the first claim takes the worse,
// older element.
func TestCertifyRefutesStrictClaimForLanePQ(t *testing.T) {
	j := NewJournal(16)
	q := NewLanePQ(1, 1, j)
	e, d := q.NewEnqueuer(), q.NewDequeuer()
	e.Enq(5)
	e.Enq(9)
	if v, ok := d.Deq(); !ok || v != 5 {
		t.Fatalf("witness schedule broke: Deq = %d,%v, want 5,true", v, ok)
	}
	if v, ok := d.Deq(); !ok || v != 9 {
		t.Fatalf("witness schedule broke: second Deq = %d,%v, want 9,true", v, ok)
	}
	h := j.History()
	if len(h) != 4 {
		t.Fatalf("recorded %d ops, want 4", len(h))
	}
	c := q.Claim()
	if v := certify(c, h, 1); v != nil {
		t.Fatalf("witness history rejected at honest rung %q: %v", c.Level, v)
	}
	over := c
	over.Level = LevelPQ
	v := certify(over, h, 1)
	if v == nil {
		t.Fatal("strict-PQ claim survived the lane PQ's out-of-priority service")
	}
	if v.Step != 3 || !v.Op.Equal(history.DeqOk(5)) {
		t.Fatalf("violation at step %d op %v, want step 3 op %v", v.Step, v.Op, history.DeqOk(5))
	}
}

// The example's driver runs every structure and prints one certified
// verdict line each, then the summary line.
func TestRunCertifiesEveryStructure(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, workers, perWorker); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	want := []string{"strict", "seg-k16", "seg-k64", "dup", "lanepq-s4-b8", "strictpq"}
	if len(lines) != len(want)+1 {
		t.Fatalf("got %d lines, want %d verdicts and a summary:\n%s", len(lines), len(want), out.String())
	}
	for i, name := range want {
		f := strings.Fields(lines[i])
		if len(f) != 5 || f[1] != name || f[4] != "verdict=certified" {
			t.Errorf("line %d = %q, want a certified verdict for %s", i, lines[i], name)
		}
	}
	if got := lines[len(want)]; got != "all conc runs landed inside their claimed lattice levels" {
		t.Errorf("summary line = %q", got)
	}
}
