package experiments

import (
	"fmt"
	"io"
	"math"

	"relaxlattice/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "E08",
		Title: "Probabilistic model: P(Deq misses the top-n priority) = 0.1^n",
		Paper: "Section 3.3 (end): Q1 holds w.p. 0.9, Q2 certain",
		Run:   runMissTopN,
	})
}

// runMissTopN reproduces the paper's worked probabilistic example: with
// each queue operation satisfying Q₁ with independent probability 0.9
// (and Deq certain to satisfy Q₂), the likelihood a Deq fails to return
// an item within the top n priorities is 0.1ⁿ. Operationally: each
// pending request's enqueue is visible to the dequeuer's view with
// probability 0.9; the dequeuer returns the best visible request; it
// "misses the top n" exactly when all n best requests are invisible.
func runMissTopN(w io.Writer, cfg Config) error {
	const pHold = 0.9
	const pending = 12 // pending requests, distinct priorities
	g := sim.NewRNG(cfg.Seed)
	trials := cfg.Trials
	if trials < 1000 {
		trials = 1000
	}
	// missAtLeast[n] counts trials whose returned rank is worse than n
	// (rank 1 = best).
	missAtLeast := make([]int, 5)
	served := 0
	for i := 0; i < trials; i++ {
		// Visibility of each request, best-first.
		rank := 0 // 0 = nothing visible
		for r := 1; r <= pending; r++ {
			if g.Bool(pHold) {
				rank = r
				break
			}
		}
		if rank != 0 {
			served++
		}
		for n := 1; n <= 4; n++ {
			// Missing the top n means none of the n best was visible:
			// the view returned a worse request or nothing at all.
			if rank == 0 || rank > n {
				missAtLeast[n]++
			}
		}
	}
	t := sim.NewTable("n", "analytic 0.1^n", "measured", "abs error")
	maxErr := 0.0
	for n := 1; n <= 4; n++ {
		analytic := math.Pow(0.1, float64(n))
		measured := float64(missAtLeast[n]) / float64(trials)
		e := math.Abs(analytic - measured)
		if e > maxErr {
			maxErr = e
		}
		t.AddRow(n, analytic, measured, e)
	}
	t.Render(w)
	// Four standard errors of the noisiest estimate (n=1, p=0.1), so the
	// verdict holds a correct model at any trial count.
	tol := 4 * math.Sqrt(0.1*0.9/float64(trials))
	fmt.Fprintf(w, "trials=%d served=%d max abs error=%.5f: %s\n",
		trials, served, maxErr, verdict(maxErr < tol))
	return nil
}
