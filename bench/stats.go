package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of an ascending-sorted slice by the
// nearest-rank rule core.Analyze uses, so harness percentiles and the
// product's own agree on the same samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// tailQuantile is the highest percentile, capped at p99, that still has
// at least ten samples beyond it (choosing-metrics §1): on a small
// window p99 would be the maximum of a handful of points.
func tailQuantile(sorted []float64) float64 {
	q := 0.99
	if n := len(sorted); n > 0 && float64(n)*(1-q) < 10 {
		q = 1 - 10/float64(n)
		if q < 0.5 {
			q = 0.5
		}
	}
	return quantile(sorted, q)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of an unsorted slice; the mean of the two middle values when
// the length is even, so two-window runs do not report their lower one.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// lowerQuartile of an unsorted slice, by the nearest-rank rule.
func lowerQuartile(v []float64) float64 { return quantile(sortedCopy(v), 0.25) }

// highest value of a slice, 0 when it is empty.
func highest(v []float64) float64 {
	var h float64
	for _, x := range v {
		if x > h {
			h = x
		}
	}
	return h
}

// ratio is a/b with 0 for an empty denominator: per-layer shares of a
// layer the workload never enters read 0 instead of NaN, which JSON
// cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}
