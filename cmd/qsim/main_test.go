package main

import (
	"bytes"
	"strings"
	"testing"

	"relaxlattice/internal/cluster"
)

func TestQsimRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(&a, 5, 40, 1987, 0.05, 0.10, 0.05, "Q1Q2", true); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run(&b, 5, 40, 1987, 0.05, 0.10, 0.05, "Q1Q2", true); err != nil {
		t.Fatalf("run: %v", err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed produced different output")
	}
	out := a.String()
	for _, want := range []string{"replicated taxi queue", "degradation audit", "observed history"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestQsimUnknownAssignment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 5, 10, 1, 0, 0, 0, "nope", true); err == nil {
		t.Errorf("expected error")
	}
}

// Fewer than 3 sites is an error in both modes, not a panic.
func TestQsimTooFewSites(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 1, 10, 1, 0, 0, 0, "Q1Q2", true); err == nil {
		t.Errorf("run: expected error for 1 site")
	}
	if err := runAdaptive(&buf, 2, 10, 1, cluster.FaultConfig{}, 100, false); err == nil {
		t.Errorf("runAdaptive: expected error for 2 sites")
	}
}

// Without degradation and without faults, the queue behaves preferred.
func TestQsimNoFaultsPreferred(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 5, 50, 7, 0, 0, 0, "Q1Q2", false); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "accepted by PQueue (preferred):          true") {
		t.Errorf("fault-free run should stay preferred:\n%s", out)
	}
}
