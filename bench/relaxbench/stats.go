package main

import (
	"math"
	"sort"
)

// samples is a bag of measurements of one quantity.
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile of s (p in (0,100]); 0 on
// an empty bag. With fewer than 100/(100-p) samples it is the maximum.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := s.sorted()
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func (s samples) median() float64 { return s.percentile(50) }

func (s samples) max() float64 { return s.percentile(100) }

// tailCandidates are the percentiles the report may quote, ascending,
// in tenths of a percent.
var tailCandidates = []int{750, 900, 950, 990, 999}

// supportedTail applies the reporting rule: the highest percentile
// with at least ten samples beyond it. ok is false when not even the
// lowest candidate has ten samples beyond it.
func supportedTail(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n*(1000-c)/1000 >= 10 {
			p, ok = float64(c)/10, true
		}
	}
	return p, ok
}

// quartiles returns the first, second and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive
// method), which is what the acceptance spread is defined by. It needs
// at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := samples(values).sorted()
	m := len(data)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median; 0
// for fewer than two values.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
