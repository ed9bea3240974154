package main

import "testing"

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{n: 208, p: 95, beyond: 10, ok: true}, // one cold sweep
		{n: 144, p: 90, beyond: 14, ok: true}, // one warm or peer sweep
		{n: 2000, p: 99, beyond: 20, ok: true},
		{n: 20000, p: 99.9, beyond: 20, ok: true},
		{n: 20, p: 50, beyond: 10, ok: true},
		{n: 19, ok: false},
	} {
		p, beyond, ok := tailPercentile(tc.n)
		if ok != tc.ok || (ok && (p != tc.p || beyond != tc.beyond)) {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, %v; want p%g, %d beyond, %v",
				tc.n, p, beyond, ok, tc.p, tc.beyond, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {95, 10}, {100, 10}, {0, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if xs[0] != 9 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 || sum(nil) != 0 {
		t.Error("empty samples should summarize to 0")
	}
}
