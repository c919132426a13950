package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"help"}, {"-h"}} {
		out, err := runCmd(t, args...)
		if err != nil {
			t.Fatalf("usage: %v", err)
		}
		if !strings.Contains(out, "relaxctl") || !strings.Contains(out, "verify") {
			t.Errorf("usage output: %q", out[:60])
		}
	}
}

func TestUnknownCommand(t *testing.T) {
	if _, err := runCmd(t, "bogus"); err == nil {
		t.Errorf("expected error")
	}
}

func TestList(t *testing.T) {
	out, err := runCmd(t, "list")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	for _, id := range []string{"E01", "E08", "E16"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %s", id)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out, err := runCmd(t, "run", "-trials", "2000", "-maxlen", "4", "e15")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "Summary chart") || !strings.Contains(out, "HOLDS") {
		t.Errorf("output: %q", out)
	}
	if _, err := runCmd(t, "run", "nope"); err == nil {
		t.Errorf("unknown experiment should error")
	}
}

// TestRunFailsOnRefutedClaim: a FAILS verdict fails the run. At one
// element E07's minimality rows are both false, so run exits non-zero
// naming E07 after printing its table.
func TestRunFailsOnRefutedClaim(t *testing.T) {
	out, err := runCmd(t, "run", "-maxelem", "1", "-maxlen", "4", "e07")
	if err == nil || !strings.Contains(err.Error(), "E07") {
		t.Fatalf("run -maxelem 1 e07: err = %v", err)
	}
	if !strings.Contains(out, "FAILS") {
		t.Errorf("failing experiment's output missing:\n%s", out)
	}
}

// TestRunRejectsTooFewSites: fewer than 3 sites is an error naming the
// flag, not a panic inside quorum.TaxiAssignments.
func TestRunRejectsTooFewSites(t *testing.T) {
	out, err := runCmd(t, "run", "-sites", "2", "X06")
	if err == nil || !strings.Contains(err.Error(), "-sites") {
		t.Fatalf("run -sites 2 X06: err = %v", err)
	}
	if out != "" {
		t.Fatalf("rejected run printed output: %q", out)
	}
}

// TestZeroBoundRejected: a -maxlen or -maxelem below 1 explores no
// history, so verify and run must fail naming the flag instead of
// reporting a vacuous HOLDS.
func TestZeroBoundRejected(t *testing.T) {
	for _, args := range [][]string{
		{"verify", "-maxlen", "0"},
		{"verify", "-maxelem", "0"},
		{"run", "-maxlen", "0", "e04"},
		{"run", "-maxelem", "-1", "e04"},
	} {
		flag := args[1]
		out, err := runCmd(t, args...)
		if err == nil || !strings.Contains(err.Error(), flag) {
			t.Fatalf("%v: err = %v, want one naming %s", args, err, flag)
		}
		if out != "" {
			t.Fatalf("%v printed output: %q", args, out)
		}
	}
}

func TestLatticeCommand(t *testing.T) {
	out, err := runCmd(t, "lattice", "account")
	if err != nil {
		t.Fatalf("lattice: %v", err)
	}
	if !strings.Contains(out, "SpuriousAccount") || !strings.Contains(out, "A2") {
		t.Errorf("output: %q", out)
	}
	if _, err := runCmd(t, "lattice", "nope"); err == nil {
		t.Errorf("unknown lattice should error")
	}
	// Default lattice.
	out, err = runCmd(t, "lattice")
	if err != nil || !strings.Contains(out, "replicated-priority-queue") {
		t.Errorf("default lattice: %v %q", err, out[:40])
	}
}

func TestDOTCommand(t *testing.T) {
	out, err := runCmd(t, "dot", "lattice", "combined")
	if err != nil {
		t.Fatalf("dot lattice: %v", err)
	}
	if !strings.HasPrefix(out, "digraph") || !strings.Contains(out, "SSqueue_1_1") {
		t.Errorf("dot output: %q", out[:60])
	}
	out, err = runCmd(t, "dot", "automaton", "pq")
	if err != nil || !strings.Contains(out, "Enq(1)/Ok()") {
		t.Errorf("dot automaton: %v %q", err, out[:60])
	}
	out, err = runCmd(t, "dot", "automaton", "account")
	if err != nil || !strings.Contains(out, "balance") {
		t.Errorf("dot account: %v", err)
	}
	// Defaults and errors.
	if _, err := runCmd(t, "dot"); err == nil {
		t.Errorf("dot without kind should error")
	}
	if _, err := runCmd(t, "dot", "nope"); err == nil {
		t.Errorf("unknown dot kind should error")
	}
	if _, err := runCmd(t, "dot", "lattice", "nope"); err == nil {
		t.Errorf("unknown dot lattice should error")
	}
	if _, err := runCmd(t, "dot", "automaton", "nope"); err == nil {
		t.Errorf("unknown dot automaton should error")
	}
	if out, err := runCmd(t, "dot", "lattice"); err != nil || !strings.Contains(out, "digraph") {
		t.Errorf("default dot lattice: %v", err)
	}
	if out, err := runCmd(t, "dot", "automaton"); err != nil || !strings.Contains(out, "digraph") {
		t.Errorf("default dot automaton: %v", err)
	}
}

func TestVerifyCommand(t *testing.T) {
	out, err := runCmd(t, "verify", "-maxlen", "4")
	if err != nil {
		t.Fatalf("verify: %v\n%s", err, out)
	}
	if strings.Contains(out, "FAILS") {
		t.Errorf("verify reported failure:\n%s", out)
	}
	for _, want := range []string{"Theorem 4", "One-copy serializability", "Premature-debit"} {
		if !strings.Contains(out, want) {
			t.Errorf("verify missing %q", want)
		}
	}
}

func TestAuditCommand(t *testing.T) {
	out, err := runCmd(t, "audit", "-lattice", "taxi", "Enq(3)/Ok() Deq()/Ok(3) Deq()/Ok(3)")
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if !strings.Contains(out, "{Q1}") {
		t.Errorf("audit output: %q", out)
	}
	// Unaccepted history.
	out, err = runCmd(t, "audit", "Deq()/Ok(9)")
	if err != nil || !strings.Contains(out, "not accepted") {
		t.Errorf("audit unaccepted: %v %q", err, out)
	}
	// Errors.
	if _, err := runCmd(t, "audit"); err == nil {
		t.Errorf("audit without history should error")
	}
	if _, err := runCmd(t, "audit", "-lattice", "nope", "Enq(1)/Ok()"); err == nil {
		t.Errorf("unknown lattice should error")
	}
	if _, err := runCmd(t, "audit", "garbage"); err == nil {
		t.Errorf("unparseable history should error")
	}
}

func TestTraceCommand(t *testing.T) {
	out, err := runCmd(t, "trace")
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	for _, want := range []string{"crash(S2)", "✗", "episodes:", "SSqueue_2_1", "repair"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q", want)
		}
	}
}

// TestRunObservabilityFiles pins the byte-determinism the -metrics and
// -trace flags promise: two runs at the same seed produce identical
// files, at 1 worker or 4.
func TestRunObservabilityFiles(t *testing.T) {
	dir := t.TempDir()
	render := func(name, workers string) (string, string) {
		t.Helper()
		m := filepath.Join(dir, name+".json")
		j := filepath.Join(dir, name+".jsonl")
		args := []string{"run", "-trials", "2000", "-maxlen", "4", "-metrics", m, "-trace", j, "-workers", workers, "all"}
		if _, err := runCmd(t, args...); err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		mb, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := os.ReadFile(j)
		if err != nil {
			t.Fatal(err)
		}
		return string(mb), string(jb)
	}
	m1, j1 := render("serial1", "1")
	m2, j2 := render("serial2", "1")
	mp, jp := render("parallel", "4")
	if m1 != m2 || m1 != mp {
		t.Errorf("metrics snapshots differ across runs/modes")
	}
	if j1 != j2 || j1 != jp {
		t.Errorf("event journals differ across runs/modes")
	}
	// The snapshot carries the engine, cluster, and txn layers (the
	// quorum layer's cache metrics are runtime-only by design).
	for _, want := range []string{"engine.expand.updates", "cluster.execute.attempt.", "txn.deq"} {
		if !strings.Contains(m1, want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
	// The journal carries experiment markers and degradation episodes.
	for _, want := range []string{`"name":"experiment"`, `"name":"cluster.episode"`} {
		if !strings.Contains(j1, want) {
			t.Errorf("journal missing %q", want)
		}
	}
}

// TestRunSingleExperimentMetrics covers the non-"all" path of the
// observability flags.
func TestRunSingleExperimentMetrics(t *testing.T) {
	dir := t.TempDir()
	m := filepath.Join(dir, "m.json")
	if _, err := runCmd(t, "run", "-trials", "2000", "-metrics", m, "e14"); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "txn.deq") {
		t.Errorf("E14 metrics missing txn counters:\n%.200s", data)
	}
}

// TestTraceCommandJournal covers the trace subcommand's -trace flag.
func TestTraceCommandJournal(t *testing.T) {
	dir := t.TempDir()
	j := filepath.Join(dir, "t.jsonl")
	if _, err := runCmd(t, "trace", "-trace", j); err != nil {
		t.Fatalf("trace -trace: %v", err)
	}
	data, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"env.episode"`, "SSqueue_2_1"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("episode journal missing %q:\n%s", want, data)
		}
	}
}

func TestCensusCommand(t *testing.T) {
	out, err := runCmd(t, "census", "-lattice", "taxi",
		"Enq(1)/Ok() Deq()/Ok(1)",
		"Enq(3)/Ok() Deq()/Ok(3) Deq()/Ok(3)",
		"Deq()/Ok(9)")
	if err != nil {
		t.Fatalf("census: %v", err)
	}
	for _, want := range []string{"{Q1, Q2}", "{Q1}", "outside the lattice"} {
		if !strings.Contains(out, want) {
			t.Errorf("census missing %q:\n%s", want, out)
		}
	}
	if _, err := runCmd(t, "census"); err == nil {
		t.Errorf("census without histories should error")
	}
	if _, err := runCmd(t, "census", "-lattice", "nope", "Enq(1)/Ok()"); err == nil {
		t.Errorf("unknown lattice should error")
	}
	if _, err := runCmd(t, "census", "garbage("); err == nil {
		t.Errorf("bad history should error")
	}
}
