package vexsmt_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
)

// This file holds the cache's failure modes — stale epochs and corrupt
// entries must degrade to misses, never to different bits — and the
// helpers the identity matrix shares (identity_test.go, whose warm rows
// are the cache's byte-identity property). It is an external test
// package because pkg/vexsmt cannot import its own cache implementations
// or the distributed packages built on it.

const testScale = 20000

// encodeCanonical returns rs's canonical encoding without mutating it.
func encodeCanonical(t *testing.T, rs *vexsmt.ResultSet) string {
	t.Helper()
	cp := &vexsmt.ResultSet{Meta: rs.Meta, Cells: append([]vexsmt.CellResult(nil), rs.Cells...)}
	cp.Canonicalize()
	var buf bytes.Buffer
	if err := vexsmt.EncodeResults(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func cachedService(t *testing.T, dir string, parallel int) *vexsmt.Service {
	t.Helper()
	d, err := cache.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := vexsmt.New(
		vexsmt.WithScale(testScale),
		vexsmt.WithParallelism(parallel),
		vexsmt.WithCache(d),
	)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestEpoch1CacheEntriesMissAfterPredictorAxis: entries written by the
// pre-predictor code (CacheEpoch 1, whose key string had no pred field)
// must be unreachable under the current epoch — a warm epoch-1 cache
// behaves as cold, re-simulating rather than serving stale bits.
func TestEpoch1CacheEntriesMissAfterPredictorAxis(t *testing.T) {
	ctx := context.Background()
	spec := vexsmt.CellSpec{Mix: "llll", Technique: "SMT", Threads: 2}
	plan := vexsmt.Plan{Cells: []vexsmt.CellSpec{spec}}
	dir := t.TempDir()

	// Learn the current entry's payload bytes from a cold run, then plant
	// them in a fresh directory under the key the PR-7-era code would have
	// computed: the epoch-1 format without the pred field.
	seedDir := t.TempDir()
	seedSvc := cachedService(t, seedDir, 1)
	if _, err := seedSvc.Collect(ctx, plan); err != nil {
		t.Fatal(err)
	}
	meta := seedSvc.Meta()
	oldSum := sha256.Sum256([]byte(fmt.Sprintf("vexsmt/cell/v%d/e1|seed=%d|scale=%d|mix=%s|tech=%s|threads=%d",
		meta.SchemaVersion, meta.Seed, meta.Scale, spec.Mix, spec.Technique, spec.Threads)))
	oldKey := hex.EncodeToString(oldSum[:])
	newKey := vexsmt.CacheKey(meta, spec)
	if oldKey == newKey {
		t.Fatal("epoch bump did not change the cache key")
	}

	seeded, err := cache.NewDisk(seedDir)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := seeded.Get(newKey)
	if !ok {
		t.Fatal("cold run left no entry under the current key")
	}
	planted, err := cache.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	planted.Put(oldKey, payload)

	// The warm run must not see the epoch-1 entry: one simulation, one
	// miss, zero hits.
	warmSvc := cachedService(t, dir, 1)
	if _, err := warmSvc.Collect(ctx, plan); err != nil {
		t.Fatal(err)
	}
	if n := warmSvc.SimulationsRun(); n != 1 {
		t.Fatalf("warm epoch-1 cache served a stale entry: %d simulations, want 1", n)
	}
	if st := warmSvc.CacheStats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("warm epoch-1 cache stats %+v, want 0 hits / 1 miss", st)
	}
}

// TestCorruptedCacheFilesDegradeToMisses: corrupting every cached file
// must turn the warm run back into a full simulation — same bytes, no
// errors surfaced to the caller, corruption counted in the stats.
func TestCorruptedCacheFilesDegradeToMisses(t *testing.T) {
	ctx := context.Background()
	plan := vexsmt.Plan{Cells: []vexsmt.CellSpec{
		{Mix: "mmhh", Technique: "CSMT", Threads: 4},
		{Mix: "llll", Technique: "SMT", Threads: 2},
	}}
	dir := t.TempDir()

	coldSvc := cachedService(t, dir, 2)
	coldRS, err := coldSvc.Collect(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	cold := encodeCanonical(t, coldRS)

	// Flip a payload byte in every cache entry.
	corrupted := 0
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), ".tmp-") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		b[len(b)-1] ^= 0x20
		corrupted++
		return os.WriteFile(path, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted != 2 {
		t.Fatalf("corrupted %d cache files, want 2", corrupted)
	}

	warmSvc := cachedService(t, dir, 2)
	warmRS, err := warmSvc.Collect(ctx, plan)
	if err != nil {
		t.Fatalf("corrupted cache surfaced as an error: %v", err)
	}
	if warm := encodeCanonical(t, warmRS); warm != cold {
		t.Fatal("recovery run differs from the original bits")
	}
	if n := warmSvc.SimulationsRun(); n != 2 {
		t.Fatalf("recovery run simulated %d cells, want 2 (corrupt entries must be misses)", n)
	}
	st := warmSvc.CacheStats()
	if st.Errors != 2 || st.Hits != 0 {
		t.Fatalf("recovery cache stats %+v, want 2 errors / 0 hits", st)
	}
	// The corrupt entries were rewritten: a third run is fully warm again.
	thirdSvc := cachedService(t, dir, 2)
	if _, err := thirdSvc.Collect(ctx, plan); err != nil {
		t.Fatal(err)
	}
	if n := thirdSvc.SimulationsRun(); n != 0 {
		t.Fatalf("cache did not recover: third run simulated %d cells", n)
	}
}
