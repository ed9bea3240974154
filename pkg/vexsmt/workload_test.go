package vexsmt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vexsmt/internal/isa"
	"vexsmt/internal/synth"
	"vexsmt/internal/trace"
	"vexsmt/internal/wstore"
)

// This file tests the trace-workload experiment axis: corpus loading, name
// and reference resolution, plan crossing, the mix/workload exclusivity
// rule, and cache addressing (including that the epoch bump orphans every
// pre-workload entry). Byte-identity of trace cells across execution
// paths is the corpus column of TestByteIdentityMatrix.

// writeTestCorpus records the named synthetic profiles as .vxt traces in a
// fresh directory — the same files tracegen -record would produce.
func writeTestCorpus(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range names {
		p, ok := synth.ByName(name)
		if !ok {
			t.Fatalf("no synthetic profile %q", name)
		}
		gen := synth.MustNewGenerator(p, isa.ST200x4)
		instrs := trace.Record(gen, 2000)
		f, err := os.Create(filepath.Join(dir, name+".vxt"))
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Write(f, name, isa.ST200x4.Clusters, instrs); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// workloadService builds a service over a private store (so tests do not
// pollute the process-global corpus) with the given directory loaded.
func workloadService(t *testing.T, dir string, opts ...Option) *Service {
	t.Helper()
	st := wstore.New()
	if _, err := st.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	return testService(t, append([]Option{withWorkloadStore(st)}, opts...)...)
}

func TestLoadWorkloadsAndPrivateStore(t *testing.T) {
	dir := writeTestCorpus(t, "idct", "mcf")
	refs, err := LoadWorkloads(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 {
		t.Fatalf("loaded %d workloads, want 2: %v", len(refs), refs)
	}
	// Sorted by name, each a full name@sha256 reference.
	for i, want := range []string{"idct@", "mcf@"} {
		name, hash := wstore.SplitRef(refs[i])
		if !strings.HasPrefix(refs[i], want) || len(hash) != 64 {
			t.Fatalf("ref %d = %q (name %q, hash %q), want %s<64 hex digits>", i, refs[i], name, hash, want)
		}
	}
	if _, err := LoadWorkloads(filepath.Join(dir, "nosuch")); err == nil {
		t.Fatal("missing corpus directory accepted")
	}
	// A private store loaded from the same directory holds the same
	// content references...
	svc := workloadService(t, dir)
	for _, ref := range refs {
		cells, err := svc.PlanCells(Plan{Cells: []CellSpec{{Workload: ref, Technique: "SMT", Threads: 2}}})
		if err != nil || cells[0].Workload != ref {
			t.Fatalf("private store does not resolve %s: %v %+v", ref, err, cells)
		}
	}
	// ...and an empty private store knows none of them, although the
	// shared store does.
	if _, err := testService(t, withWorkloadStore(wstore.New())).PlanCells(Plan{Workloads: refs[:1]}); err == nil {
		t.Fatal("empty private store resolved a workload of the shared store")
	}
}

func TestWorkloadResolution(t *testing.T) {
	dir := writeTestCorpus(t, "idct")
	svc := workloadService(t, dir)

	// A bare name in a spec resolves to the full content reference, so the
	// cells PlanCells hands a coordinator pin the trace bytes.
	cells, err := svc.PlanCells(Plan{Cells: []CellSpec{
		{Workload: "idct", Technique: "SMT", Threads: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || !strings.HasPrefix(cells[0].Workload, "idct@") {
		t.Fatalf("bare name not resolved to reference: %+v", cells)
	}
	ref := cells[0].Workload

	// The reference form resolves to itself; a matching-name wrong-hash
	// reference is unknown (content addressing, not file naming).
	cells, err = svc.PlanCells(Plan{Cells: []CellSpec{
		{Workload: ref, Technique: "SMT", Threads: 2},
	}})
	if err != nil || cells[0].Workload != ref {
		t.Fatalf("reference did not resolve to itself: %v %+v", err, cells)
	}
	bogus := "idct@" + strings.Repeat("0", 64)
	if _, err := svc.PlanCells(Plan{Workloads: []string{bogus}}); err == nil {
		t.Fatal("wrong-hash reference accepted")
	}

	// Unknown names fail the whole plan up front and list what is loaded.
	if _, err := svc.PlanCells(Plan{Workloads: []string{"nosuch"}}); err == nil {
		t.Fatal("unknown workload accepted")
	} else if !strings.Contains(err.Error(), "idct") {
		t.Fatalf("error does not list the loaded corpus: %v", err)
	}

	// Without any corpus the error points at LoadWorkloads instead of
	// listing an empty corpus.
	if _, err := testService(t, withWorkloadStore(wstore.New())).PlanCells(Plan{Workloads: []string{"idct"}}); err == nil {
		t.Fatal("workload accepted without a corpus")
	} else if !strings.Contains(err.Error(), "no trace corpus loaded") {
		t.Fatalf("corpus-less error: %v", err)
	}

	// A spec naming both a mix and a workload is contradictory.
	if _, err := svc.PlanCells(Plan{Cells: []CellSpec{
		{Mix: "llll", Workload: "idct", Technique: "SMT", Threads: 2},
	}}); err == nil {
		t.Fatal("cell naming both mix and workload accepted")
	}
}

func TestWorkloadAxisCrossesGrid(t *testing.T) {
	dir := writeTestCorpus(t, "idct", "mcf")
	svc := workloadService(t, dir)

	// Workloads cross every technique x {2,4} threads, additive with the
	// figure grid and multiplied by the predictor axis like mix cells.
	cells, err := svc.PlanCells(Plan{Workloads: []string{"idct", "mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*8*2 { // 2 workloads x 8 techniques x 2 thread counts
		t.Fatalf("workload plan has %d cells, want 32", len(cells))
	}
	for _, c := range cells {
		if c.Mix != "" || c.Workload == "" {
			t.Fatalf("workload cell carries a mix: %+v", c)
		}
	}
	crossed, err := svc.PlanCells(Plan{
		Workloads:  []string{"idct"},
		Predictors: []string{"static", "bimodal"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(crossed) != 2*8*2 { // 2 predictors x 8 techniques x 2 thread counts
		t.Fatalf("predictor-crossed workload plan has %d cells, want 32", len(crossed))
	}
}

// newMapCache is a minimal in-memory CellCache for tests. It is
// safe for concurrent use, as a Service's workers share their cache.
type mapCache struct {
	mu    sync.Mutex
	m     map[string][]byte
	stats CacheStats
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string][]byte)} }

func (c *mapCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if ok {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return v, ok
}

func (c *mapCache) Put(key string, value []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Puts++
	c.m[key] = append([]byte(nil), value...)
}

func (c *mapCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func TestCacheKeyWorkloadAddressing(t *testing.T) {
	meta := RunMeta{SchemaVersion: SchemaVersion, Seed: 1, Scale: 100}
	synthetic := CellSpec{Mix: "llll", Technique: "SMT", Threads: 2}
	traced := CellSpec{Workload: "idct@" + strings.Repeat("a", 64), Technique: "SMT", Threads: 2}
	if CacheKey(meta, synthetic) == CacheKey(meta, traced) {
		t.Error("trace cell shares the synthetic cache entry")
	}
	// Same name, different content hash: different entry. The hash — not
	// the file name — is the address.
	other := traced
	other.Workload = "idct@" + strings.Repeat("b", 64)
	if CacheKey(meta, traced) == CacheKey(meta, other) {
		t.Error("workload content hash not part of the cache key")
	}
}

// TestEpoch3OrphansEpoch2Entries: the workload field rode in on a
// CacheEpoch bump, so a warm epoch-2 cache misses every epoch-3 key — no
// pre-workload entry can be served as a current result, even for purely
// synthetic cells whose spec did not change.
func TestEpoch3OrphansEpoch2Entries(t *testing.T) {
	if CacheEpoch != 3 {
		t.Fatalf("CacheEpoch = %d; this test pins the 2->3 bump", CacheEpoch)
	}
	meta := RunMeta{SchemaVersion: SchemaVersion, Seed: 1, Scale: 100}
	spec := CellSpec{Mix: "llll", Technique: "SMT", Threads: 2}
	// The epoch-2 key layout, verbatim from the pre-workload CacheKey.
	epoch2 := sha256.Sum256([]byte(fmt.Sprintf("vexsmt/cell/v%d/e2|seed=%d|scale=%d|mix=%s|tech=%s|threads=%d|pred=%s",
		meta.SchemaVersion, meta.Seed, meta.Scale, spec.Mix, spec.Technique, spec.Threads, "")))
	if CacheKey(meta, spec) == hex.EncodeToString(epoch2[:]) {
		t.Fatal("epoch-3 key collides with the epoch-2 layout")
	}
}
