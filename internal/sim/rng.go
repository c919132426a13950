// Package sim provides the simulation substrate shared by the cluster
// and transaction runtimes: a seeded deterministic random source, a
// discrete-event engine for crash/repair/propagation processes,
// workload generators, and small metrics/table helpers used by the
// experiment harness. All randomness in the library flows through RNG,
// so every experiment is reproducible bit-for-bit from its seed.
package sim

import "math/rand"

// RNG is a seeded pseudo-random source. It is not safe for concurrent
// use; give each concurrent client its own Split.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent generator deterministically, so
// concurrent components draw reproducible streams regardless of
// interleaving.
func (g *RNG) Split() *RNG {
	return NewRNG(g.r.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean
// (inter-arrival times of Poisson processes).
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Jitter returns d scaled by a uniform factor in [1-frac, 1+frac] —
// the spread retry/backoff policies apply to scheduled delays so
// synchronized clients desynchronize. frac is clamped to [0, 1]; a
// non-positive frac returns d unchanged without consuming randomness.
func (g *RNG) Jitter(d, frac float64) float64 {
	if frac <= 0 {
		return d
	}
	if frac > 1 {
		frac = 1
	}
	return d * (1 + frac*(2*g.Float64()-1))
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
