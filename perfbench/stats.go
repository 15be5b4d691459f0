package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// with fewer, the percentile is one or two samples and moves with noise.
const minBeyond = 10

// tailLadder is the set of percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// percentile returns the nearest-rank p-th percentile of sorted samples:
// the smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile in n samples.
// The small slack keeps binary fractions such as 99.9/100 from rounding a
// whole rank up.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// beyond counts the samples that lie strictly above the nearest-rank p-th
// percentile's rank in n samples.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// tailPercentile is the highest ladder percentile that leaves at least
// minBeyond samples above it in n samples. ok is false when even the
// median leaves fewer; the caller then has too few samples for any tail.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// median of samples (not modified).
func median(samples []float64) float64 {
	s := sortedCopy(samples)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}
