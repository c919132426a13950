package cluster

import (
	"bytes"
	"testing"

	"relaxlattice/internal/history"
	"relaxlattice/internal/obs"
	"relaxlattice/internal/quorum"
	"relaxlattice/internal/specs"
)

// TestDegradationEpisodeJournal drives a deterministic fault schedule
// through an observed cluster and pins the full journal byte-for-byte:
// the client's (constraint set, behavior) pair changes exactly at the
// faults, and each transition yields one cluster.episode event. The
// logical clock is the cluster's own mu-protected counter, so these
// bytes are stable across runs — the same guarantee `relaxctl run
// -trace` rests on.
func TestDegradationEpisodeJournal(t *testing.T) {
	rec := obs.NewRecorder()
	reg := obs.NewRegistry()
	c := New(Config{
		Sites:   5,
		Quorums: quorum.TaxiAssignments(5)["Q1Q2"],
		Base:    specs.PriorityQueue(),
		Fold:    quorum.PQFold(),
		Respond: PQResponder,
		Metrics: reg,
		Trace:   rec,
	})
	cl := c.Client(0)
	cl.Degrade = true

	exec := func(inv history.Invocation) {
		t.Helper()
		if _, err := cl.Execute(inv); err != nil {
			t.Fatalf("%v: %v", inv, err)
		}
	}

	exec(history.EnqInv(2)) // healthy: preferred-quorum episode opens
	exec(history.EnqInv(5)) // same pair: no event
	c.Partition([]int{0, 1})
	exec(history.EnqInv(1)) // degraded: all-reachable episode
	c.Heal()
	exec(history.DeqInv()) // healed: preferred-quorum again
	c.Crash(2)
	c.Crash(3)
	c.Crash(4)
	exec(history.DeqInv()) // majority lost: degraded again
	c.Restore(2)
	c.Restore(3)
	c.Restore(4)
	exec(history.DeqInv()) // restored: preferred-quorum

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"t":1,"name":"cluster.episode","client":"1","home":"0","constraints":"Deq,Enq","behavior":"preferred-quorum","op":"Enq","reachable":"5"}
{"t":2,"name":"cluster.partition","groups":"{0,1}"}
{"t":3,"name":"cluster.episode","client":"1","home":"0","constraints":"∅","behavior":"all-reachable","op":"Enq","reachable":"2"}
{"t":4,"name":"cluster.heal"}
{"t":5,"name":"cluster.episode","client":"1","home":"0","constraints":"Deq,Enq","behavior":"preferred-quorum","op":"Deq","reachable":"5"}
{"t":6,"name":"cluster.crash","site":"2"}
{"t":7,"name":"cluster.crash","site":"3"}
{"t":8,"name":"cluster.crash","site":"4"}
{"t":9,"name":"cluster.episode","client":"1","home":"0","constraints":"∅","behavior":"all-reachable","op":"Deq","reachable":"2"}
{"t":10,"name":"cluster.restore","site":"2"}
{"t":11,"name":"cluster.restore","site":"3"}
{"t":12,"name":"cluster.restore","site":"4"}
{"t":13,"name":"cluster.episode","client":"1","home":"0","constraints":"Deq,Enq","behavior":"preferred-quorum","op":"Deq","reachable":"5"}
`
	if buf.String() != want {
		t.Errorf("episode journal:\n%swant:\n%s", buf.String(), want)
	}

	// The commutative side of the same story.
	snap := reg.Snapshot()
	for name, wantN := range map[string]uint64{
		"cluster.execute.attempt.Enq":  3,
		"cluster.execute.attempt.Deq":  3,
		"cluster.execute.ok.Enq":       3,
		"cluster.execute.ok.Deq":       3,
		"cluster.execute.degraded.Enq": 1,
		"cluster.execute.degraded.Deq": 1,
		"cluster.fault.partition":      1,
		"cluster.fault.heal":           1,
		"cluster.fault.crash":          3,
		"cluster.fault.restore":        3,
	} {
		if got, _ := snap.Counter(name); got != wantN {
			t.Errorf("counter %s = %d, want %d", name, got, wantN)
		}
	}
}
