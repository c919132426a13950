package sim

import (
	"fmt"
	"math"
	"sort"
)

// Histogram accumulates float64 samples and reports summary statistics
// and quantiles. It stores samples exactly (intended for simulation
// scales, not unbounded streams).
type Histogram struct {
	samples []float64
	sorted  bool
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	h.samples = append(h.samples, x)
	h.sorted = false
}

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range h.samples {
		total += x
	}
	return total / float64(len(h.samples))
}

// Quantile returns the q-quantile for q in [0, 1] (nearest-rank; 0 when
// empty). It panics on q outside [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("sim: quantile %v outside [0,1]", q))
	}
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}
