package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relaxlattice/internal/core"
	"relaxlattice/internal/history"
	"relaxlattice/internal/relaxcheck"
	"relaxlattice/internal/relaxd"
)

// startSites serves n durable sites on loopback and returns their
// addresses as a -peers value.
func startSites(t *testing.T, n int) string {
	t.Helper()
	replicas, err := relaxd.OpenSites(t.TempDir(), n, relaxd.StoreOptions{})
	if err != nil {
		t.Fatalf("OpenSites: %v", err)
	}
	addrs := make([]string, n)
	for i, r := range replicas {
		s, err := relaxd.ListenSite("127.0.0.1:0", r)
		if err != nil {
			t.Fatalf("ListenSite %d: %v", i, err)
		}
		t.Cleanup(func() { s.Close() })
		addrs[i] = s.Addr()
	}
	return strings.Join(addrs, ",")
}

func TestWorkloadCertifyAndHistoryExport(t *testing.T) {
	peers := startSites(t, 3)
	hist := filepath.Join(t.TempDir(), "hist.txt")

	var out bytes.Buffer
	if err := run([]string{"-peers", peers, "-ops", "60", "-seed", "5",
		"-clients", "2", "-certify", "-history", hist}, &out); err != nil {
		t.Fatalf("workload: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "certify: clean at rung Q1Q2") {
		t.Fatalf("no clean certification:\n%s", out.String())
	}

	// A second sequential run must use clock identities above the first
	// run's (3 sites + 2 clients → first free identity is 6).
	out.Reset()
	if err := run([]string{"-peers", peers, "-ops", "40", "-seed", "6",
		"-client-base", "6", "-certify", "-history", hist}, &out); err != nil {
		t.Fatalf("second workload: %v\n%s", err, out.String())
	}

	// The accumulated export is exactly what the audit sidecar replays;
	// certify it offline the same way.
	f, err := os.Open(hist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := history.ReadLines(f)
	if err != nil {
		t.Fatalf("exported history does not parse: %v", err)
	}
	if len(h) == 0 {
		t.Fatal("exported history is empty")
	}
	if v := relaxcheck.Certify(core.TaxiSimpleLattice(), nil, "Q1Q2", h); v != nil {
		t.Fatalf("exported history fails offline certification: %+v", v)
	}
}

func TestOneShotOps(t *testing.T) {
	peers := startSites(t, 3)
	var out bytes.Buffer
	if err := run([]string{"-peers", peers, "-op", "Enq(5)"}, &out); err != nil {
		t.Fatalf("Enq(5): %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "Enq(5)/Ok()") {
		t.Fatalf("unexpected Enq output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-peers", peers, "-op", "Deq", "-client-base", "5"}, &out); err != nil {
		t.Fatalf("Deq: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "Deq()/Ok(5)") {
		t.Fatalf("Deq did not return the enqueued element:\n%s", out.String())
	}
	// Deq on the now-empty queue has no consistent response: the
	// operation fails and the exit status says so.
	out.Reset()
	if err := run([]string{"-peers", peers, "-op", "Deq", "-client-base", "6"}, &out); err == nil {
		t.Fatalf("Deq on empty queue succeeded:\n%s", out.String())
	}
}

func TestRungGating(t *testing.T) {
	peers := startSites(t, 3)
	var out bytes.Buffer
	// A lower rung still executes (same sites, weaker gate)...
	if err := run([]string{"-peers", peers, "-ops", "20", "-rung", "Q1",
		"-certify"}, &out); err != nil {
		t.Fatalf("rung Q1: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "certify: clean at rung Q1") {
		t.Fatalf("no clean Q1 certification:\n%s", out.String())
	}
	// ...an unknown rung is rejected.
	if err := run([]string{"-peers", peers, "-ops", "1", "-rung", "Q3"}, &out); err == nil {
		t.Fatal("unknown rung accepted")
	}
}

func TestFlagAndOpValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-ops", "1"}, &out); err == nil {
		t.Fatal("missing -peers accepted")
	}
	if err := run([]string{"-peers", "a,b,c"}, &out); err == nil {
		t.Fatal("neither -op nor -ops accepted")
	}
	if err := run([]string{"-peers", "a,b,c", "-op", "Push(1)"}, &out); err == nil {
		t.Fatal("bad -op accepted")
	}
	// Bad sizes are errors naming the flag, not panics.
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-peers", "a,b", "-ops", "3"}, "-peers"},
		{[]string{"-peers", "a", "-op", "Deq"}, "-peers"},
		{[]string{"-peers", "a,b,c", "-clients", "0", "-ops", "3"}, "-clients"},
		{[]string{"-peers", "a,b,c", "-clients", "0", "-op", "Deq"}, "-clients"},
		{[]string{"-peers", "a,b,c", "-ops", "-3"}, "-ops"},
		{[]string{"-peers", "a,b,c", "-ops", "3", "-deq-ratio", "7"}, "-deq-ratio"},
		{[]string{"-peers", "a,b,c", "-ops", "3", "-deq-ratio", "-0.1"}, "-deq-ratio"},
	} {
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("%v: err = %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
	if _, err := parseInvocation("Enq(x)"); err == nil {
		t.Fatal("Enq(x) parsed")
	}
}
