// Package resilience is the client-side robustness layer over the
// relaxation-lattice machinery: a deterministic retry/timeout/backoff
// policy (deadline budgets in simulation time, capped exponential
// backoff with injected-RNG jitter) and an adaptive degradation
// controller that chooses *where on the relaxation lattice* a client
// operates — stepping down after repeated availability failures and
// probing its way back up after sustained successes, as relaxed
// structures are deployed in practice.
//
// Everything here is deterministic by construction: delays are
// simulation-time floats scheduled on a sim.Engine, jitter draws come
// from an injected sim.RNG, and the controller is a pure state machine
// driven by the caller. The wall clock never appears, so a seeded run
// replays bit-for-bit — the same contract the cluster substrate and
// the experiment harness pin in CI.
package resilience

import "relaxlattice/internal/sim"

// Policy is a deterministic retry/timeout/backoff policy. All times are
// in the simulation-time units of the driving sim.Engine. The zero
// value means "one attempt, no budget"; DefaultPolicy returns the
// tuning the experiments use.
type Policy struct {
	// MaxAttempts caps the attempts per operation, including the
	// first. Values below 1 mean a single attempt (no retries).
	MaxAttempts int
	// Budget is the per-operation deadline budget: once the next
	// backoff would land past start+Budget, the retrier gives up with
	// ReasonBudget. Zero or negative means no deadline.
	Budget float64
	// BaseBackoff is the delay before the first retry. Zero or
	// negative defaults to 1.
	BaseBackoff float64
	// MaxBackoff caps every individual delay. Zero or negative means
	// uncapped.
	MaxBackoff float64
	// Multiplier is the exponential growth factor between consecutive
	// delays. Zero or negative defaults to 2; 1 gives constant delays.
	Multiplier float64
	// Jitter spreads each delay by a uniform factor in [1-J, 1+J],
	// drawn from the injected RNG. Values above 1 are clamped to 1;
	// zero or negative disables jitter.
	Jitter float64
}

// DefaultPolicy returns the retry tuning used by the experiments:
// up to six attempts within a budget of 40 time units, backing off
// 0.5 → 1 → 2 → 4 → 8 (capped) with ±20% jitter.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 6, Budget: 40, BaseBackoff: 0.5, MaxBackoff: 8, Multiplier: 2, Jitter: 0.2}
}

// Attempts returns the effective attempt cap (always at least one).
func (p Policy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the delay before the next attempt after `failed`
// consecutive failed attempts (failed ≥ 1): capped exponential growth
// from BaseBackoff, jittered through rng. A nil rng disables jitter;
// the draw order is fixed (exactly one Float64 per jittered call), so
// a seeded RNG makes every delay sequence reproducible.
func (p Policy) Backoff(failed int, rng *sim.RNG) float64 {
	base := p.BaseBackoff
	if base <= 0 {
		base = 1
	}
	mult := p.Multiplier
	if mult <= 0 {
		mult = 2
	}
	d := base
	for i := 1; i < failed; i++ {
		d *= mult
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if rng != nil && p.Jitter > 0 {
		d = rng.Jitter(d, p.Jitter)
	}
	return d
}

// Options bundles the retry policy with the controller tuning — the
// single knob the experiment harness and command-line front ends
// thread through to adaptive cluster clients.
type Options struct {
	Policy     Policy
	Controller ControllerConfig
}

// DefaultOptions returns the tuning used for EXPERIMENTS.md.
func DefaultOptions() Options {
	return Options{Policy: DefaultPolicy(), Controller: DefaultControllerConfig()}
}
