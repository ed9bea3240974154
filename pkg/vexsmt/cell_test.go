package vexsmt

import (
	"strings"
	"testing"
)

// TestCacheKeyPinnedEpoch3 pins CacheKey to the hex keys the epoch-3
// layout produced when it was introduced. Every disk cache written since
// holds entries under these addresses: a refactor that drifts the key
// string by one byte would silently orphan all of them, so a change here
// must come with a CacheEpoch bump, never with new expected values.
func TestCacheKeyPinnedEpoch3(t *testing.T) {
	meta := RunMeta{SchemaVersion: SchemaVersion, Seed: 1, Scale: 100}
	ref := "fir@" + strings.Repeat("0123456789abcdef", 4)
	for _, tc := range []struct {
		spec CellSpec
		key  string
	}{
		{CellSpec{Mix: "llll", Technique: "CCSI AS", Threads: 4},
			"d0b1ecb742e23d92f4ecddceef833f2f6f332f5a4861b70b43ca51236caddb55"},
		// "static" spelled out addresses the same entry as "".
		{CellSpec{Mix: "llll", Technique: "CCSI AS", Threads: 4, Predictor: "static"},
			"d0b1ecb742e23d92f4ecddceef833f2f6f332f5a4861b70b43ca51236caddb55"},
		{CellSpec{Mix: "llll", Technique: "CCSI AS", Threads: 4, Predictor: "tage"},
			"db4a6c64448dda0e52da4b89302d66738e57d8a776e056f75986b9ef34aed21b"},
		{CellSpec{Workload: ref, Technique: "SMT", Threads: 2, Predictor: "tage"},
			"2d6c7c8e8fc4c159c49d3c336b875dd029ebcafaa378d5e0a9817cdb317a7c87"},
	} {
		if got := CacheKey(meta, tc.spec); got != tc.key {
			t.Errorf("CacheKey(%+v) = %s, want the stored epoch-3 key %s", tc.spec, got, tc.key)
		}
	}
}

func TestCellSpecString(t *testing.T) {
	ref := "fir@" + strings.Repeat("ab", 32)
	for _, tc := range []struct {
		spec CellSpec
		want string
	}{
		{CellSpec{Mix: "llhh", Technique: "CCSI AS", Threads: 4}, "llhh/CCSI AS/4T"},
		{CellSpec{Mix: "llhh", Technique: "SMT", Threads: 2, Predictor: "static"}, "llhh/SMT/2T"},
		{CellSpec{Mix: "llhh", Technique: "SMT", Threads: 2, Predictor: "gshare"}, "llhh/SMT/2T/gshare"},
		// Trace cells have no mix: the workload reference is the label.
		{CellSpec{Workload: ref, Technique: "OOSI", Threads: 2}, ref + "/OOSI/2T"},
	} {
		if got := tc.spec.String(); got != tc.want {
			t.Errorf("%+v: String() = %q, want %q", tc.spec, got, tc.want)
		}
	}
}
