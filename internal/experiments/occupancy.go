package experiments

import (
	"fmt"
	"io"
	"math"

	"relaxlattice/internal/core"
	"relaxlattice/internal/env"
	"relaxlattice/internal/lattice"
	"relaxlattice/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "X02",
		Title: "Extension — probabilistic lattice occupancy: the Section 2.3 interface between functional and probabilistic models",
		Paper: "Section 2.3 (last paragraph), Section 3.3 (probabilistic example)",
		Run:   runOccupancy,
	})
}

// runOccupancy samples, per operation, which constraints the
// environment satisfies (Q₁ w.p. 0.9, Q₂ w.p. 0.8, independent) and
// tallies how often each lattice element — hence each behavior — is
// selected. The measured occupancy must match the analytic product
// probabilities, demonstrating the paper's claim that the functional
// lattice composes cleanly with an independent probabilistic model.
func runOccupancy(w io.Writer, cfg Config) error {
	u := core.TaxiUniverse()
	lat := core.TaxiSimpleLattice()
	p := env.NewProb(u, map[string]float64{
		core.ConstraintQ1: 0.9,
		core.ConstraintQ2: 0.8,
	}, cfg.Seed)
	trials := cfg.Trials
	if trials < 1000 {
		trials = 1000
	}
	counts := map[lattice.Set]int{}
	for i := 0; i < trials; i++ {
		counts[p.Sample()]++
	}
	t := sim.NewTable("constraints sampled", "behavior selected", "analytic", "measured", "abs error")
	maxErr := 0.0
	for _, s := range u.SubsetsBySize() {
		a, _ := lat.Phi(s)
		analytic := p.PSet(s)
		measured := float64(counts[s]) / float64(trials)
		e := math.Abs(analytic - measured)
		if e > maxErr {
			maxErr = e
		}
		t.AddRow(u.Format(s), a.Name(), analytic, measured, e)
	}
	t.Render(w)
	// Four standard errors at the worst-case variance (p=0.5), so the
	// verdict holds a correct model at any trial count.
	tol := 4 * math.Sqrt(0.25/float64(trials))
	fmt.Fprintf(w, "trials=%d max abs error=%.5f: %s\n", trials, maxErr, verdict(maxErr < tol))
	fmt.Fprintf(w, "P(preferred behavior per op) = P(Q1)·P(Q2) = %.2f; availability of the\n", p.PAtLeast(u.All()))
	fmt.Fprintln(w, "preferred behavior is a pure product — the functional lattice never needs")
	fmt.Fprintln(w, "to know the distribution, and the distribution never needs the automata.")
	return nil
}
