package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported tail percentile must have
// beyond it; with fewer, the percentile is not supported by the sample.
const minBeyond = 10

// ladder lists the percentiles a tail request may fall back to, highest
// first.
var ladder = []float64{99, 95, 90, 75, 50}

// samples collects one distribution of measurements (in the unit of the
// metric that reports it).
type samples []float64

// rank is the nearest-rank index of percentile q in n sorted samples
// (the epsilon keeps 99.9% of 20000 at 19980 despite rounding).
func rank(n int, q float64) int {
	r := int(math.Ceil(q/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r - 1
}

// sorted returns a sorted copy.
func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// median is the nearest-rank 50th percentile (0 for no samples).
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	return c[rank(len(c), 50)]
}

// tail returns the q-th percentile, or — when fewer than minBeyond
// samples lie beyond it — the highest percentile of the ladder below q
// that has that many, together with the percentile actually used.  With
// too few samples for even the median, it returns the median.
func (s samples) tail(q float64) (v, used float64) {
	if len(s) == 0 {
		return 0, q
	}
	c := s.sorted()
	for _, p := range append([]float64{q}, ladder...) {
		if p > q {
			continue
		}
		r := rank(len(c), p)
		if len(c)-1-r >= minBeyond {
			return c[r], p
		}
	}
	return c[rank(len(c), 50)], 50
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
