package main

import (
	"math"
	"slices"
)

// failed marks a latency sample whose request failed, was refused or
// returned wrong content. It sorts above every real latency, so a failure
// counts as infinitely slow at every percentile.
const failed = math.MaxInt64

// tailLadder is the set of percentiles (in per-mille) a tail metric may
// report, highest first.
var tailLadder = []int{990, 950, 900, 500}

// rankOf is the 1-based nearest rank of the pm-per-mille percentile among
// n samples: ceil(pm·n/1000), at least 1. Integer arithmetic keeps the
// rank exact; in floats 0.07·100 is 7.000000000000001, whose ceiling is 8.
func rankOf(pm, n int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPermille returns the highest percentile of tailLadder with at least
// ten samples beyond it among n samples, or 0 when n is under ten.
func tailPermille(n int) int {
	for _, pm := range tailLadder {
		if n-rankOf(pm, n) >= 10 {
			return pm
		}
	}
	return 0
}

// percentile returns the pm-per-mille nearest-rank percentile of sorted
// samples in nanoseconds, as +Inf when that rank holds a failure and as 0
// when there are no samples.
func percentile(sorted []int64, pm int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	v := sorted[rankOf(pm, len(sorted))-1]
	if v == failed {
		return math.Inf(1)
	}
	return float64(v)
}

// sortedCopy returns the samples in ascending order, leaving the input
// untouched.
func sortedCopy(samples []int64) []int64 {
	out := slices.Clone(samples)
	slices.Sort(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// finite maps an infinite percentile onto the largest float so it stays
// encodable as JSON; a run that reports one is already marked incorrect.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
