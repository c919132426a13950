// Package resilience is the client-side robustness layer over the
// relaxation-lattice machinery: a deterministic retry/backoff policy
// (exponential backoff in simulation time with injected-RNG jitter)
// and an adaptive degradation controller that chooses *where on the
// relaxation lattice* a client operates — stepping down after repeated
// availability failures and probing its way back up after sustained
// successes, as relaxed structures are deployed in practice.
//
// Everything here is deterministic by construction: delays are
// simulation-time floats scheduled on a sim.Engine, jitter draws come
// from an injected sim.RNG, and the controller is a pure state machine
// driven by the caller. The wall clock never appears, so a seeded run
// replays bit-for-bit — the same contract the cluster substrate and
// the experiment harness pin in CI.
package resilience

import (
	"math"

	"relaxlattice/internal/sim"
)

// The retry policy, in the simulation-time units of the driving
// sim.Engine: up to MaxAttempts attempts per operation, the retry
// after n failed attempts waiting BaseBackoff·2^(n−1) (0.5, 1, 2, 4,
// 8) spread by ±Jitter. The five delays sum to at most 15.5·1.2 =
// 18.6, so no deadline is needed to bound an operation.
const (
	MaxAttempts = 6
	BaseBackoff = 0.5
	Jitter      = 0.2
)

// backoff returns the delay before the next attempt after `failed`
// consecutive failed attempts (1 ≤ failed < MaxAttempts), jittered
// through rng with exactly one Float64 draw, so a seeded RNG makes
// every delay sequence reproducible.
func backoff(failed int, rng *sim.RNG) float64 {
	return rng.Jitter(math.Ldexp(BaseBackoff, failed-1), Jitter)
}
