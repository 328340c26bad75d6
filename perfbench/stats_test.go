package main

import (
	"math"
	"testing"
)

func TestPercentileCountsFailuresAsInfinitelySlow(t *testing.T) {
	// 100 samples: 98 successes of 1..98 µs and two failures.
	var samples []int64
	for i := int64(1); i <= 98; i++ {
		samples = append(samples, i*1000)
	}
	samples = append(samples, failed, failed)
	s := sortedCopy(samples)
	if got := percentile(s, 500); got != 50000 {
		t.Errorf("p50 = %v, want 50000", got)
	}
	if got := percentile(s, 980); got != 98000 {
		t.Errorf("p98 = %v, want 98000 (the slowest success)", got)
	}
	if got := percentile(s, 990); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want +Inf: the 99th of 100 samples is a failure", got)
	}
	// A failure sorts above any latency, however slow.
	s = sortedCopy([]int64{failed, math.MaxInt64 - 1, 5})
	if s[2] != failed {
		t.Errorf("failure sorted to %v, want last", s)
	}
	if got := finite(percentile(s, 990)); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v, want the largest float", got)
	}
	if got := percentile(nil, 500); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestRankIsExactNearestRank(t *testing.T) {
	for _, c := range []struct{ pm, n, want int }{
		{950, 200, 190},
		{70, 100, 7}, // ceil(0.07·100) is 8 in floats
		{990, 100, 99},
		{990, 1000, 990},
		{990, 999, 990},
		{500, 1, 1},
		{0, 7, 1},
	} {
		if got := rankOf(c.pm, c.n); got != c.want {
			t.Errorf("rankOf(%d, %d) = %d, want %d", c.pm, c.n, got, c.want)
		}
	}
}

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{200, 950}, // p95, exactly ten beyond
		{199, 900},
		{1000, 990},
		{999, 950},
		{100, 900},
		{99, 500},
		{20, 500},
		{19, 0},
		{0, 0},
	} {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// For every n, the chosen percentile has at least ten samples beyond
	// it and every higher rung of the ladder has fewer.
	for n := 1; n <= 5000; n++ {
		pm := tailPermille(n)
		for _, rung := range tailLadder {
			beyond := n - rankOf(rung, n)
			switch {
			case rung == pm && beyond < 10:
				t.Fatalf("n=%d: chose p%v with %d beyond", n, float64(pm)/10, beyond)
			case rung > pm && beyond >= 10:
				t.Fatalf("n=%d: chose p%v but p%v has %d beyond", n, float64(pm)/10, float64(rung)/10, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
