package vexsmt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

// TestCacheKeyMatchesSprintf holds CacheKey's append-built digest input
// to the fmt.Sprintf layout it replaced, over specs with arbitrary
// strings (separators, non-ASCII, empty), extreme thread counts, seeds
// and scales, and checks that a key costs one allocation: the string.
func TestCacheKeyMatchesSprintf(t *testing.T) {
	sprintfKey := func(meta RunMeta, c CellSpec) string {
		sum := sha256.Sum256([]byte(fmt.Sprintf("vexsmt/cell/v%d/e%d|seed=%d|scale=%d|%s",
			meta.SchemaVersion, CacheEpoch, meta.Seed, meta.Scale,
			fmt.Sprintf("mix=%s|tech=%s|threads=%d|pred=%s|wl=%s",
				c.Mix, c.Technique, c.Threads, internalPredictor(c.Predictor), c.Workload))))
		return hex.EncodeToString(sum[:])
	}
	words := []string{"", "llll", "CCSI AS", "static", "tage", "a|b=c", "ünï", strings.Repeat("x", 300),
		"fir@" + strings.Repeat("0123456789abcdef", 4)}
	r := rand.New(rand.NewPCG(1, 2))
	pick := func() string { return words[r.IntN(len(words))] }
	for i := 0; i < 2000; i++ {
		meta := RunMeta{SchemaVersion: r.IntN(5) - 1, Seed: r.Uint64(), Scale: int64(r.Uint64())}
		spec := CellSpec{Mix: pick(), Technique: pick(), Threads: int(int32(r.Uint32())), Predictor: pick(), Workload: pick()}
		if got, want := CacheKey(meta, spec), sprintfKey(meta, spec); got != want {
			t.Fatalf("CacheKey(%+v, %+v) = %s, fmt.Sprintf layout gives %s", meta, spec, got, want)
		}
	}
	meta := RunMeta{SchemaVersion: SchemaVersion, Seed: 1, Scale: 8000}
	spec := CellSpec{Mix: "llll", Technique: "CCSI AS", Threads: 4, Predictor: "tage"}
	if allocs := testing.AllocsPerRun(100, func() { CacheKey(meta, spec) }); allocs > 1 {
		t.Errorf("CacheKey allocates %.0f times, want 1", allocs)
	}
}
