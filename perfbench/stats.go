package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a timing may be summarized at, in
// increasing order. tailPercentile picks the highest one the sample count
// supports.
var tailCandidates = []float64{50, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie above a reported percentile for
// it to mean anything: a tail read off fewer than ten samples is one
// scheduler hiccup, not a property of the system.
const minBeyond = 10

// rankOf returns the 1-based nearest-rank index of percentile p among n
// sorted samples.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // the epsilon absorbs 99.9/100 rounding up
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond samples beyond it among n samples, and how many lie
// beyond. ok is false when not even the median qualifies.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, c := range tailCandidates {
		if b := n - rankOf(c, n); b >= minBeyond {
			p, beyond, ok = c, b, true
		}
	}
	return p, beyond, ok
}

// percentile returns the nearest-rank percentile p of xs (unsorted; xs is
// not modified). It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func minOf(xs []float64) float64 { return percentile(xs, 0) }

func maxOf(xs []float64) float64 { return percentile(xs, 100) }
