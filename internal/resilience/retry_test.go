package resilience

import (
	"errors"
	"testing"

	"relaxlattice/internal/sim"
)

var errFlaky = errors.New("flaky")

func retryAll(error) bool { return true }

func TestDoSucceedsAfterRetries(t *testing.T) {
	var engine sim.Engine
	calls := 0
	var got Outcome
	Do(&engine, sim.NewRNG(1), retryAll, func(n int) error {
		calls++
		if n != calls {
			t.Errorf("attempt number %d on call %d", n, calls)
		}
		if n < 3 {
			return errFlaky
		}
		return nil
	}, func(out Outcome) { got = out })
	engine.Run(100)
	if calls != 3 || got.Attempts != 3 || got.Err != nil || got.Reason != "" {
		t.Fatalf("outcome %+v after %d calls", got, calls)
	}
	// Delays 0.5 + 1, each jittered by ±20%, elapsed between the three
	// attempts.
	if got.Elapsed < 1.5*(1-Jitter) || got.Elapsed > 1.5*(1+Jitter) {
		t.Errorf("Elapsed = %v, want 1.5 ± 20%%", got.Elapsed)
	}
}

// The arithmetic that makes a deadline unnecessary: an operation that
// never succeeds stops after MaxAttempts attempts, having waited the
// five backoffs 0.5+1+2+4+8 = 15.5 within their ±20% jitter. A change
// that raises the attempts or the delays fails here, and must then
// argue for a deadline that bounds them.
func TestDoExhaustsAttempts(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		var engine sim.Engine
		calls := 0
		var got Outcome
		Do(&engine, sim.NewRNG(seed), retryAll,
			func(int) error { calls++; return errFlaky },
			func(out Outcome) { got = out })
		engine.Run(1000)
		if calls != 6 || got.Attempts != 6 || !errors.Is(got.Err, errFlaky) || got.Reason != ReasonAttempts {
			t.Fatalf("seed %d: outcome %+v after %d calls", seed, got, calls)
		}
		if got.Elapsed < 0.8*15.5 || got.Elapsed > 1.2*15.5 {
			t.Errorf("seed %d: Elapsed = %v, want within [12.4, 18.6]", seed, got.Elapsed)
		}
	}
}

func TestDoNonRetryable(t *testing.T) {
	var engine sim.Engine
	fatal := errors.New("fatal")
	calls := 0
	var got Outcome
	Do(&engine, sim.NewRNG(1), func(err error) bool { return !errors.Is(err, fatal) },
		func(int) error { calls++; return fatal },
		func(out Outcome) { got = out })
	engine.Run(100)
	if calls != 1 || got.Reason != ReasonNonRetryable || !errors.Is(got.Err, fatal) {
		t.Fatalf("outcome %+v after %d calls", got, calls)
	}
}

// Simulation time advances between attempts, so state that heals with
// time (a restored site, a healed partition) is visible to retries —
// the property the adaptive cluster clients rely on.
func TestDoSeesTimePassing(t *testing.T) {
	var engine sim.Engine
	healedAt := 5.0
	var got Outcome
	Do(&engine, sim.NewRNG(1), retryAll, func(int) error {
		if engine.Now() >= healedAt {
			return nil
		}
		return errFlaky
	}, func(out Outcome) { got = out })
	engine.Run(100)
	// Attempts at t≈0, 0.5, 1.5, 3.5, 7.5: even at ±20% jitter the
	// fourth lands before the heal (≤ 4.2) and the fifth after (≥ 6).
	if got.Err != nil || got.Attempts != 5 {
		t.Fatalf("outcome %+v (healed at t=5)", got)
	}
}
