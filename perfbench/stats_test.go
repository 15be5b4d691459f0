package main

import "testing"

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{1, 0, false},
		{19, 0, false},   // the median leaves 10 only from 20 samples
		{20, 50, true},   // rank 10, 10 beyond
		{39, 50, true},   // p75: rank 30, 9 beyond
		{40, 75, true},   // p75: rank 30, 10 beyond
		{99, 75, true},   // p90: rank 90, 9 beyond
		{100, 90, true},  // p90: rank 90, 10 beyond
		{200, 95, true},  // p95: rank 190, 10 beyond
		{999, 95, true},  // p99: rank 990, 9 beyond
		{1000, 99, true}, // p99: rank 990, 10 beyond
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d beyond, want >= %d", c.n, p, beyond(c.n, p), minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
