package resilience

import (
	"testing"

	"relaxlattice/internal/sim"
)

// The delay before retry n is BaseBackoff·2^(n−1) — 0.5, 1, 2, 4, 8 —
// jittered with exactly one Float64 draw, so a replay consumes the RNG
// stream in the same steps.
func TestBackoffExponential(t *testing.T) {
	got, ref := sim.NewRNG(3), sim.NewRNG(3)
	for n, nominal := range []float64{0.5, 1, 2, 4, 8} {
		want := ref.Jitter(nominal, Jitter)
		if d := backoff(n+1, got); d != want {
			t.Errorf("backoff(%d) = %v, want %v (nominal %v)", n+1, d, want, nominal)
		}
	}
}

func TestBackoffJitterBoundedAndDeterministic(t *testing.T) {
	a, b := sim.NewRNG(11), sim.NewRNG(11)
	for i := 0; i < 100; i++ {
		da := backoff(3, a)
		db := backoff(3, b)
		if da != db {
			t.Fatalf("same-seed jitter diverged at draw %d: %v vs %v", i, da, db)
		}
		if da < 2*(1-Jitter) || da > 2*(1+Jitter) {
			t.Fatalf("jittered delay %v outside [1.6, 2.4]", da)
		}
	}
}
