package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAuditRoundTrip drives the audit sidecar entirely through the CLI
// surface: export a history from a small cluster soak, then replay it
// in audit mode to a clean verdict.
func TestAuditRoundTrip(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "hist.txt")
	var out bytes.Buffer
	if err := run([]string{"-mode", "cluster", "-workload", "bursty",
		"-clients", "20", "-ops", "400", "-seed", "11", "-calm",
		"-history", hist}, &out); err != nil {
		t.Fatalf("soak: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"-mode", "audit", "-history", hist, "-lattice", "taxi"}, &out); err != nil {
		t.Fatalf("audit: %v\n%s", err, out.String())
	}
	if !strings.HasSuffix(out.String(), "audited history stays inside its relaxation lattice\n") {
		t.Fatalf("audit verdict:\n%s", out.String())
	}
}

// TestLonghaulMode runs a compressed kill-9 soak through the CLI
// surface: real TCP sites, continuous hard kills, at least one
// wipe-and-rejoin via snapshot shipping (wipe-every 1 makes every kill
// a wipe), and the three certification verdicts. The full-length run is
// CI's relaxd-longhaul job; this keeps the battery in tier-1.
func TestLonghaulMode(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "longhaul-hist.txt")
	var out bytes.Buffer
	if err := run([]string{"-mode", "longhaul", "-sites", "5", "-clients", "4",
		"-ops", "200", "-seed", "23", "-kill-every", "40ms", "-wipe-every", "1",
		"-history", hist}, &out); err != nil {
		t.Fatalf("longhaul: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"longhaul live-checker",
		"longhaul merged-log",
		"longhaul sidecar-replay",
		"verdict=certified",
		"survived the kill-9 soak",
	} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("longhaul report missing %q:\n%s", want, out.String())
		}
	}
	if bytes.Contains(out.Bytes(), []byte("wipes=0")) {
		t.Fatalf("longhaul never exercised a wipe-and-rejoin:\n%s", out.String())
	}
	if b, err := os.ReadFile(hist); err != nil || len(b) == 0 {
		t.Fatalf("longhaul history export missing (%v, %d bytes)", err, len(b))
	}
}

// TestAuditRejectsMissingHistory pins the flag contract.
func TestAuditRejectsMissingHistory(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-mode", "audit"}, &out); err == nil {
		t.Fatal("audit without -history succeeded")
	}
}

// TestUnknownModeFails: a mistyped -mode must fail naming the valid
// modes, not soak nothing and report success.
func TestUnknownModeFails(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-mode", "bogus"}, &out)
	if err == nil {
		t.Fatalf("-mode bogus succeeded:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "cluster, txn, both, audit or longhaul") {
		t.Fatalf("error does not name the modes: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("-mode bogus printed a report:\n%s", out.String())
	}
}

// TestBadSizesFail: sizes the runtimes cannot run with are rejected up
// front with an error naming the flag, not a panic deep in a run.
func TestBadSizesFail(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-mode", "cluster", "-sites", "2"}, "-sites"},
		{[]string{"-mode", "both", "-sites", "1"}, "-sites"},
		{[]string{"-mode", "longhaul", "-sites", "2"}, "-sites"},
		{[]string{"-mode", "txn", "-ops", "0"}, "-ops"},
		{[]string{"-mode", "cluster", "-clients", "0"}, "-clients"},
		{[]string{"-mode", "txn", "-dequeuers", "0"}, "-dequeuers"},
		{[]string{"-mode", "audit", "-lattice", "spool", "-dequeuers", "-2"}, "-dequeuers"},
		{[]string{"-mode", "longhaul", "-ops", "1", "-wipe-every", "0"}, "-wipe-every"},
		{[]string{"-mode", "longhaul", "-ops", "1", "-kill-every", "0s"}, "-kill-every"},
		// One export holds one object's history: several independent
		// runs appended into one file do not replay as any object.
		{[]string{"-history", "h.txt"}, "-history"},
		{[]string{"-mode", "both", "-workload", "bursty", "-history", "h.txt"}, "-history"},
		{[]string{"-mode", "cluster", "-workload", "all", "-history", "h.txt"}, "-history"},
		{[]string{"-mode", "txn", "-workload", "all", "-history", "h.txt"}, "-history"},
		// One span stream traces one run: cluster and txn spans run on
		// different clocks, and every run starts at time 0.
		{[]string{"-workload", "bursty", "-spans", "sp.jsonl"}, "-spans"},
		{[]string{"-mode", "cluster", "-workload", "all", "-spans", "sp.jsonl"}, "-spans"},
		{[]string{"-mode", "txn", "-workload", "all", "-spans", "sp.jsonl"}, "-spans"},
		{[]string{"-mode", "longhaul", "-spans", "sp.jsonl"}, "-spans"},
		{[]string{"-mode", "audit", "-history", "h.txt", "-spans", "sp.jsonl"}, "-spans"},
		// One journal records one run: every run's clock starts at 0.
		{[]string{"-workload", "bursty", "-trace", "t.jsonl"}, "-trace"},
		{[]string{"-mode", "cluster", "-workload", "all", "-trace", "t.jsonl"}, "-trace"},
		{[]string{"-mode", "txn", "-workload", "all", "-trace", "t.jsonl"}, "-trace"},
		{[]string{"-mode", "longhaul", "-trace", "t.jsonl"}, "-trace"},
		{[]string{"-mode", "audit", "-history", "h.txt", "-trace", "t.jsonl"}, "-trace"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("%v: err = %v, want one naming %s", tc.args, err, tc.flag)
		}
		if out.Len() != 0 {
			t.Fatalf("%v printed a report:\n%s", tc.args, out.String())
		}
	}
}

// TestSoakSpansFlag: -spans writes a non-empty span stream
// deterministic across invocations.
func TestSoakSpansFlag(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(name string) []byte {
		p := filepath.Join(dir, name)
		var out bytes.Buffer
		if err := run([]string{"-mode", "cluster", "-workload", "uniform",
			"-clients", "10", "-ops", "200", "-seed", "3", "-calm",
			"-spans", p}, &out); err != nil {
			t.Fatalf("soak: %v\n%s", err, out.String())
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	s1 := runOnce("s1.jsonl")
	if len(s1) == 0 {
		t.Fatal("no spans written")
	}
	if !bytes.Equal(s1, runOnce("s2.jsonl")) {
		t.Fatal("span streams differ across identical invocations")
	}
}
