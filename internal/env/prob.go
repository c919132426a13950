package env

import (
	"fmt"
	"math/rand"

	"relaxlattice/internal/lattice"
)

// Prob is the probabilistic environment model the paper's functional
// specifications interface to (Section 2.3): an independent per-
// constraint probability that the constraint is satisfied when an
// operation executes. The worked example at the end of Section 3.3
// ("each queue operation satisfies Q₁ with independent probability 0.9,
// and Deq operations are certain to satisfy Q₂") is expressed by
// PHold = {Q1: 0.9, Q2: 1.0}.
type Prob struct {
	pHold []float64
	rng   *rand.Rand
}

// NewProb builds a probabilistic environment. pHold maps constraint
// names to satisfaction probabilities; missing constraints default to
// 1 (always satisfied). It panics on unknown names or probabilities
// outside [0, 1].
func NewProb(u *lattice.Universe, pHold map[string]float64, seed int64) *Prob {
	ps := make([]float64, u.Len())
	for i := range ps {
		ps[i] = 1
	}
	for name, p := range pHold {
		i := u.Index(name)
		if i < 0 {
			panic(fmt.Sprintf("env: unknown constraint %q", name))
		}
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("env: probability %v for %q outside [0,1]", p, name))
		}
		ps[i] = p
	}
	return &Prob{pHold: ps, rng: rand.New(rand.NewSource(seed))}
}

// Sample draws the constraint set satisfied by one operation execution:
// each constraint holds independently with its configured probability.
func (p *Prob) Sample() lattice.Set {
	var s lattice.Set
	for i, ph := range p.pHold {
		if ph >= 1 || p.rng.Float64() < ph {
			s = s.With(i)
		}
	}
	return s
}

// PSet returns the analytic probability that Sample returns exactly the
// set s (constraints are independent).
func (p *Prob) PSet(s lattice.Set) float64 {
	prob := 1.0
	for i, ph := range p.pHold {
		if s.Has(i) {
			prob *= ph
		} else {
			prob *= 1 - ph
		}
	}
	return prob
}

// PAtLeast returns the analytic probability that Sample returns a
// superset of s (all constraints of s hold).
func (p *Prob) PAtLeast(s lattice.Set) float64 {
	prob := 1.0
	for _, i := range s.Indexes() {
		prob *= p.pHold[i]
	}
	return prob
}
