package sim

import (
	"math"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.N() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("empty histogram wrong")
	}
	for _, x := range []float64{3, 1, 2, 5, 4} {
		h.Observe(x)
	}
	if h.N() != 5 || h.Mean() != 3 {
		t.Errorf("n=%d mean=%v", h.N(), h.Mean())
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := h.Quantile(1.0); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := h.Quantile(0.0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	// Observing after a quantile query re-sorts lazily.
	h.Observe(0)
	if got := h.Quantile(0.0); got != 0 {
		t.Errorf("p0 after observe = %v", got)
	}
}

func TestHistogramQuantileOfExponential(t *testing.T) {
	g := NewRNG(9)
	var h Histogram
	for i := 0; i < 50000; i++ {
		h.Observe(g.Exp(2.0))
	}
	// Median of Exp(mean 2) is 2·ln 2 ≈ 1.386.
	if got := h.Quantile(0.5); math.Abs(got-2*math.Ln2) > 0.05 {
		t.Errorf("median = %v, want ≈%v", got, 2*math.Ln2)
	}
}

func TestHistogramQuantilePanics(t *testing.T) {
	var h Histogram
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	h.Quantile(1.5)
}

// N returns the sample count.
func (h *Histogram) N() int { return len(h.samples) }
