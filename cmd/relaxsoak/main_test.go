package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAuditKillResumeMatchesUninterrupted drives the audit sidecar the
// way CI's kill-resume smoke does, entirely through the CLI surface:
// export a history from a small cluster soak, audit it with a mid-run
// stop (the simulated kill), resume from the checkpoint, and require
// the resumed run's final checkpoint to be byte-identical to the
// uninterrupted audit's.
func TestAuditKillResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "hist.txt")
	ck := filepath.Join(dir, "ck.json")
	ckResumed := filepath.Join(dir, "ck_resumed.json")
	ckFull := filepath.Join(dir, "ck_full.json")

	var out bytes.Buffer
	if err := run([]string{"-mode", "cluster", "-workload", "bursty",
		"-clients", "20", "-ops", "400", "-seed", "11", "-calm",
		"-history", hist}, &out); err != nil {
		t.Fatalf("soak: %v\n%s", err, out.String())
	}

	out.Reset()
	if err := run([]string{"-mode", "audit", "-history", hist, "-lattice", "taxi",
		"-checkpoint", ck, "-checkpoint-every", "100", "-stop-at", "150"}, &out); err != nil {
		t.Fatalf("audit (killed): %v\n%s", err, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("resumable from the checkpoint")) {
		t.Fatalf("killed audit did not report resumability:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-mode", "audit", "-history", hist, "-lattice", "taxi",
		"-resume", ck, "-checkpoint", ckResumed}, &out); err != nil {
		t.Fatalf("audit (resumed): %v\n%s", err, out.String())
	}
	resumedReport := out.String()

	out.Reset()
	if err := run([]string{"-mode", "audit", "-history", hist, "-lattice", "taxi",
		"-checkpoint", ckFull}, &out); err != nil {
		t.Fatalf("audit (uninterrupted): %v\n%s", err, out.String())
	}

	a, err := os.ReadFile(ckResumed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(ckFull)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("resumed audit's final checkpoint differs from the uninterrupted audit's")
	}
	// Checkpoints are valid JSON with the versioned schema.
	var doc map[string]any
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("checkpoint is not JSON: %v", err)
	}
	if doc["version"] != float64(1) {
		t.Fatalf("checkpoint version = %v", doc["version"])
	}
	if !bytes.Contains([]byte(resumedReport), []byte("stays inside")) {
		t.Fatalf("resumed audit verdict:\n%s", resumedReport)
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
	if !strings.Contains(err.Error(), "cluster, txn, both, conc, audit or longhaul") {
		t.Fatalf("error does not name the modes: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("-mode bogus printed a report:\n%s", out.String())
	}
}

// TestSoakSpansAndFlightFlags: -spans writes a non-empty span stream
// deterministic across invocations.
func TestSoakSpansAndFlightFlags(t *testing.T) {
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
