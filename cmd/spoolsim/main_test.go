package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"relaxlattice/internal/obs"
	"relaxlattice/internal/txn"
)

func TestSpoolsimStrategies(t *testing.T) {
	for _, strategy := range []txn.Strategy{txn.Blocking, txn.Optimistic, txn.Pessimistic} {
		var buf bytes.Buffer
		if err := run(&buf, obs.NewRegistry(), strategy, 3, 9, 1987, 0.1, time.Millisecond); err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		out := buf.String()
		if !strings.Contains(out, "lattice verification") {
			t.Errorf("%v output missing verification:\n%s", strategy, out)
		}
		// Every run lands inside the combined SSqueue bound.
		if !strings.Contains(out, "SSqueue_") {
			t.Errorf("%v missing SSqueue line", strategy)
		}
		if strings.Contains(out, "SSqueue_") && strings.Contains(out, "): false") {
			// The SSqueue_kk line specifically must be true; find it.
			for _, line := range strings.Split(out, "\n") {
				if strings.Contains(line, "SSqueue_") && strings.Contains(line, "false") {
					t.Errorf("%v left the SSqueue bound: %s", strategy, line)
				}
			}
		}
	}
}

// TestSpoolsimBadFlagsFail: a spool that could never drain (no
// printers, or every print jamming) is rejected up front with an error
// naming the flag, not hung on or reported as a success.
func TestSpoolsimBadFlagsFail(t *testing.T) {
	for _, tc := range []struct {
		printers int
		pAbort   float64
		flag     string
	}{
		{0, 0.1, "-printers"},
		{-1, 0.1, "-printers"},
		{3, 1, "-pabort"},
		{3, 1.5, "-pabort"},
		{3, -0.1, "-pabort"},
	} {
		var buf bytes.Buffer
		err := run(&buf, obs.NewRegistry(), txn.Optimistic, tc.printers, 9, 1987, tc.pAbort, time.Millisecond)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("printers=%d pabort=%v: err = %v, want one naming %s", tc.printers, tc.pAbort, err, tc.flag)
		}
		if buf.Len() != 0 {
			t.Fatalf("printers=%d pabort=%v printed a report:\n%s", tc.printers, tc.pAbort, buf.String())
		}
	}
}

func TestSpoolsimBlockingIsFIFO(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, obs.NewRegistry(), txn.Blocking, 4, 12, 3, 0.0, time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "Atomic(FifoQueue)): true") {
		t.Errorf("blocking should be FIFO:\n%s", out)
	}
	if !strings.Contains(out, "jobs printed more than once: 0") {
		t.Errorf("blocking duplicated jobs:\n%s", out)
	}
	if !strings.Contains(out, "printed out of spool order: 0") {
		t.Errorf("blocking reordered jobs:\n%s", out)
	}
}
