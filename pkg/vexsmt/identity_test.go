package vexsmt_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
	"vexsmt/pkg/vexsmt/fault"
	"vexsmt/pkg/vexsmt/fleet"
	"vexsmt/pkg/vexsmt/server"
	"vexsmt/pkg/vexsmt/shard"
)

// This file is the determinism contract in one table: serial = parallel
// = streamed = cached = distributed = under chaos. Every execution path
// (a row) runs every grid (a column) it depends on, on services or
// daemons it builds itself, and every export it produces must hash to
// the grid's single digest pinned in testdata/identity.sha256. A
// deliberate model change re-pins that one file; a new path is one more
// row.

// identityDigests is the pinned digest file, in sha256sum format: each
// line is the sha256 of one grid's canonical export (what vexsmtctl
// -json writes at scale 20000, seed 1), two spaces, and the grid's file
// name.
const identityDigests = "testdata/identity.sha256"

// corpusDir is the shipped trace corpus the corpus grid sweeps.
const corpusDir = "../../examples/corpus"

// identityGrid is one column of the matrix: a plan and its cell count.
type identityGrid struct {
	file  string // the grid's name in identityDigests
	plan  vexsmt.Plan
	cells int
}

// identityGrids loads the corpus into the process-shared workload store —
// which every in-process service and daemon resolves against — and
// returns the matrix's columns: the paper's figure grid, the figure-14
// predictor sweep, and every corpus workload under every technique at 2
// and 4 threads.
func identityGrids(t *testing.T) []identityGrid {
	t.Helper()
	refs, err := vexsmt.LoadWorkloads(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	grids := []identityGrid{
		{"figure.json", vexsmt.Plan{Figures: []string{"14", "15", "16"}}, 144},
		{"predictor.json", vexsmt.Plan{Figures: []string{"14"}, Predictors: []string{"static", "bimodal"}}, 108},
		{"corpus.json", vexsmt.Plan{Workloads: refs}, 16 * len(refs)},
	}
	svc := newService(t)
	for _, g := range grids {
		if n, err := svc.PlanSize(g.plan); err != nil || n != g.cells || n == 0 {
			t.Fatalf("%s plans %d cells (%v), want %d", g.file, n, err, g.cells)
		}
	}
	return grids
}

// pinnedDigests reads identityDigests into a file name → digest map.
func pinnedDigests(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(identityDigests)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		sum, file, ok := strings.Cut(line, "  ")
		if !ok || len(sum) != 64 {
			t.Fatalf("%s: bad line %q", identityDigests, line)
		}
		out[file] = sum
	}
	return out
}

// identityRow is one execution path. run executes plan (cells cells)
// through the path on services or daemons it builds itself — so no row
// or column is served by another's memo — asserts the path's own
// invariants, and returns every export the path produced: a warm row
// returns its cold run and its warm rerun.
type identityRow struct {
	name string
	run  func(t *testing.T, plan vexsmt.Plan, cells int) []*vexsmt.ResultSet
}

// gridIndependent names the rows whose path does not vary with the
// grid, so they run the figure grid only: local fallback is the plain
// local Collect the serial row already runs on every grid, and
// chaos-light drives chaos-heavy's path at lower fault rates.
var gridIndependent = map[string]bool{"local-fallback": true, "chaos-light": true}

// TestByteIdentityMatrix checks every (row, grid) export against the
// grid's pinned digest.
func TestByteIdentityMatrix(t *testing.T) {
	grids := identityGrids(t)
	pinned := pinnedDigests(t)
	for _, g := range grids {
		if pinned[g.file] == "" {
			t.Fatalf("%s pins no digest for %s", identityDigests, g.file)
		}
	}
	for _, row := range identityRows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			gs := grids
			if gridIndependent[row.name] {
				gs = grids[:1] // the figure grid
			}
			for _, g := range gs {
				t.Run(strings.TrimSuffix(g.file, ".json"), func(t *testing.T) {
					for i, rs := range row.run(t, g.plan, g.cells) {
						sum := sha256.Sum256([]byte(encodeCanonical(t, rs)))
						if got := hex.EncodeToString(sum[:]); got != pinned[g.file] {
							t.Errorf("export %d: got %s  %s; %s pins %s", i+1, got, g.file, identityDigests, pinned[g.file])
						}
					}
				})
			}
		})
	}
}

var identityRows = []identityRow{
	{"serial", func(t *testing.T, plan vexsmt.Plan, cells int) []*vexsmt.ResultSet {
		svc := newService(t, vexsmt.WithParallelism(1))
		rs := collect(t, svc, plan)
		simulatedOnce(t, cells, svc)
		return []*vexsmt.ResultSet{rs}
	}},
	{"parallel", func(t *testing.T, plan vexsmt.Plan, cells int) []*vexsmt.ResultSet {
		svc := newService(t, vexsmt.WithParallelism(8))
		rs := collect(t, svc, plan)
		simulatedOnce(t, cells, svc)
		return []*vexsmt.ResultSet{rs}
	}},
	{"stream", streamRow},
	{"warm-memory", func(t *testing.T, plan vexsmt.Plan, cells int) []*vexsmt.ResultSet {
		mem := cache.NewMemory(0)
		cold := newService(t, vexsmt.WithCache(mem))
		coldRS := collect(t, cold, plan)
		stored(t, cells, cold)
		before := mem.Stats()
		warm := newService(t, vexsmt.WithCache(mem))
		warmRS := collect(t, warm, plan)
		recalled(t, cells, warm, before, warmRS)
		return []*vexsmt.ResultSet{coldRS, warmRS}
	}},
	{"disk", diskRow},
	{"shard-local", shardLocalRow},
	{"shard-local-warm", shardLocalWarmRow},
	{"shard-http", func(t *testing.T, plan vexsmt.Plan, cells int) []*vexsmt.ResultSet {
		rs, p := coordinate(t, plan, shard.Config{},
			httpBackend(t, serve(t, newDaemon().Handler())), httpBackend(t, serve(t, newDaemon().Handler())))
		cleanProgress(t, cells, p)
		return []*vexsmt.ResultSet{rs}
	}},
	{"chaos-light", chaosRow(fault.Light(), false)},
	{"chaos-heavy", chaosRow(fault.Heavy(), true)},
	{"local-fallback", func(t *testing.T, plan vexsmt.Plan, cells int) []*vexsmt.ResultSet {
		var degraded atomic.Bool
		rs, _ := coordinate(t, plan, shard.Config{
			LocalFallback: true,
			Backoff:       time.Millisecond, // the dead backend's re-probes
			Logf: func(format string, args ...any) {
				if strings.Contains(fmt.Sprintf(format, args...), "falling back to local execution") {
					degraded.Store(true)
				}
			},
		}, httpBackend(t, "http://127.0.0.1:9")) // discard port: refuses at once
		if !degraded.Load() {
			t.Fatal("coordinator never reported the local fallback")
		}
		return []*vexsmt.ResultSet{rs}
	}},
	{"fleet", fleetRow},
	{"peer-fill", peerFillRow},
}

// streamRow consumes the public Stream: every planned cell arrives
// exactly once, and nothing unplanned arrives.
func streamRow(t *testing.T, plan vexsmt.Plan, cells int) []*vexsmt.ResultSet {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // a failed check cancels, so the stream drains
	svc := newService(t, vexsmt.WithParallelism(8))
	planned, err := svc.PlanCells(plan)
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(map[vexsmt.CellSpec]bool)
	for _, c := range planned {
		delivered[c] = false
	}
	ch, err := svc.Stream(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	rs := &vexsmt.ResultSet{Meta: svc.Meta()}
	for c := range ch {
		if c.Err != "" {
			t.Fatalf("%s: %s", c.CellSpec, c.Err)
		}
		if seen, ok := delivered[c.CellSpec]; !ok || seen {
			t.Fatalf("%s: delivered unplanned or twice", c.CellSpec)
		}
		delivered[c.CellSpec] = true
		rs.Cells = append(rs.Cells, c)
	}
	if len(rs.Cells) != cells {
		t.Fatalf("streamed %d cells, want %d", len(rs.Cells), cells)
	}
	simulatedOnce(t, cells, svc)
	return []*vexsmt.ResultSet{rs}
}

// diskRow works over one disk-cache directory: a cold run at
// parallelism 4 fills it, then fresh services rerun the plan warm at
// parallelism 1 and 4.
func diskRow(t *testing.T, plan vexsmt.Plan, cells int) []*vexsmt.ResultSet {
	dir := t.TempDir()
	cold := cachedService(t, dir, 4)
	out := []*vexsmt.ResultSet{collect(t, cold, plan)}
	stored(t, cells, cold)
	for _, parallel := range []int{1, 4} {
		warm := cachedService(t, dir, parallel)
		rs := collect(t, warm, plan)
		recalled(t, cells, warm, vexsmt.CacheStats{}, rs)
		out = append(out, rs)
	}
	return out
}

// shardLocalRow coordinates the plan over K = 1, 2 and 3 in-process
// backends that all wrap one fresh service: K=1 simulates every cell and
// K=2 and K=3 recall them from its memo, so only placement and merge
// vary.
func shardLocalRow(t *testing.T, plan vexsmt.Plan, cells int) []*vexsmt.ResultSet {
	svc := newService(t)
	var out []*vexsmt.ResultSet
	for k := 1; k <= 3; k++ {
		bs := make([]shard.Backend, k)
		for i := range bs {
			bs[i] = shard.NewLocal(fmt.Sprintf("local-%d", i), svc)
		}
		rs, p := coordinate(t, plan, shard.Config{}, bs...)
		cleanProgress(t, cells, p)
		out = append(out, rs)
	}
	simulatedOnce(t, cells, svc)
	return out
}

// shardLocalWarmRow works over one disk-cache directory: a cold
// coordinated run across three cached in-process backends fills it, then
// fresh backends at K=1 and K=3 rerun the plan warm.
func shardLocalWarmRow(t *testing.T, plan vexsmt.Plan, cells int) []*vexsmt.ResultSet {
	dir := t.TempDir()
	run := func(k int) (*vexsmt.ResultSet, shard.Progress, []*vexsmt.Service) {
		bs := make([]shard.Backend, k)
		svcs := make([]*vexsmt.Service, k)
		for i := range bs {
			svcs[i] = cachedService(t, dir, 2)
			bs[i] = shard.NewLocal(fmt.Sprintf("cached-%d", i), svcs[i])
		}
		rs, p := coordinate(t, plan, shard.Config{}, bs...)
		cleanProgress(t, cells, p)
		return rs, p, svcs
	}
	cold, p, svcs := run(3)
	// The backends share the directory, but the scheduler runs each cell
	// once, so no backend reads back another's fresh entry.
	if p.CacheHits != 0 {
		t.Fatalf("cold run reported cache hits: %+v", p)
	}
	simulatedOnce(t, cells, svcs...)
	out := []*vexsmt.ResultSet{cold}
	for _, k := range []int{1, 3} {
		warm, p, svcs := run(k)
		if p.CacheHits != cells || p.CacheMisses != 0 {
			t.Fatalf("K=%d warm run progress %+v, want %d hits / 0 misses", k, p, cells)
		}
		simulatedOnce(t, 0, svcs...)
		out = append(out, warm)
	}
	return out
}

// chaosRow sweeps two daemons whose caches inject faults through a
// transport that injects faults. Retries (8, so 9 attempts) strictly
// exceed the worst case a cell can absorb — the profile's per-identity
// cap (at most 2) times its two identities, one stream-form submit per
// daemon — and local fallback is armed, so even a fully faulted placement
// round degrades to an identical local run. With rerun, the plan is then
// collected again from the same daemons over a clean transport, so it
// always meets their faulty caches: corrupt or lost entries must degrade
// to re-simulation, never to different bytes.
func chaosRow(p fault.Profile, rerun bool) func(*testing.T, vexsmt.Plan, int) []*vexsmt.ResultSet {
	// Squeeze the soft delays: the schedule stays as aggressive without
	// idling the test.
	p.RequestDelay = time.Millisecond
	p.PeerFillDelay = time.Millisecond
	return func(t *testing.T, plan vexsmt.Plan, cells int) []*vexsmt.ResultSet {
		transport := fault.New(42, p)
		var daemons []*fault.Injector
		var urls []string
		for _, seed := range []uint64{7, 8} {
			inj := fault.New(seed, p)
			daemons = append(daemons, inj)
			urls = append(urls, serve(t, newDaemon(server.WithCache(fault.NewCache(inj, cache.NewMemory(0)))).Handler()))
		}
		cacheFaults := func() int {
			n := 0
			for _, inj := range daemons {
				n += inj.Fired()
			}
			return n
		}
		client := fault.Client(transport, nil)
		rs, _ := coordinate(t, plan, shard.Config{Retries: 8, Backoff: time.Millisecond, LocalFallback: true},
			httpBackend(t, urls[0], shard.WithClient(client)), httpBackend(t, urls[1], shard.WithClient(client)))
		if transport.Fired()+cacheFaults() == 0 {
			t.Fatalf("%s profile fired no fault", p.Name)
		}
		out := []*vexsmt.ResultSet{rs}
		if rerun {
			before := cacheFaults()
			rs, _ := coordinate(t, plan, shard.Config{Backoff: time.Millisecond}, httpBackend(t, urls[0]), httpBackend(t, urls[1]))
			if cacheFaults() == before {
				t.Fatalf("%s rerun met no cache fault", p.Name)
			}
			out = append(out, rs)
		}
		return out
	}
}

// fleetRow drives the self-assembling fleet: two daemons register by
// heartbeat with a registry mounted on daemon A's mux, daemon B's cache
// peer-fills through its heartbeat's peer view, and a registry-sourced
// coordinator sweeps whoever is registered.
func fleetRow(t *testing.T, plan vexsmt.Plan, cells int) []*vexsmt.ResultSet {
	// The lease outlives any sweep, so no member expires mid-row.
	registry := fleet.NewRegistry(fleet.WithTTL(time.Hour))
	muxA := http.NewServeMux()
	muxA.Handle("/", newDaemon(server.WithCache(cache.NewMemory(0))).Handler())
	muxA.Handle("/v1/fleet/", registry.Handler())
	urlA := serve(t, muxA)

	var urlB string
	hbB, err := fleet.NewHeartbeat(urlA, func() fleet.Member {
		return fleet.Member{ID: "b", URL: urlB, CacheEnabled: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	pfB := cache.WithPeerFill(cache.NewMemory(0), fleet.NewFetcher("b", hbB.Peers).Fetch)
	urlB = serve(t, newDaemon(server.WithCache(pfB)).Handler())
	hbA, err := fleet.NewHeartbeat(urlA, func() fleet.Member {
		return fleet.Member{ID: "a", URL: urlA, CacheEnabled: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	// B beats after A, so its peer view includes A.
	for _, hb := range []*fleet.Heartbeat{hbA, hbB} {
		if err := hb.Beat(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(registry.Members()); n != 2 {
		t.Fatalf("registry lists %d members, want 2", n)
	}

	var last shard.Progress
	coord, err := shard.NewFromSource(shard.Config{
		Scale:      testScale,
		Seed:       1,
		OnProgress: func(p shard.Progress) { last = p },
	}, registry.ShardSource())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := coord.Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	cleanProgress(t, cells, last)
	return []*vexsmt.ResultSet{rs}
}

// peerFillRow primes one registered daemon by a sweep, then routes the
// same sweep entirely at a cold daemon C whose cache peer-fills from the
// registry's members: every cell must come from the peer, and C must
// simulate nothing.
func peerFillRow(t *testing.T, plan vexsmt.Plan, cells int) []*vexsmt.ResultSet {
	registry := fleet.NewRegistry(fleet.WithTTL(time.Hour))
	primed := serve(t, newDaemon(server.WithCache(cache.NewMemory(0))).Handler())
	if _, err := registry.Upsert(fleet.Member{ID: "primed", URL: primed, CacheEnabled: true}); err != nil {
		t.Fatal(err)
	}
	coordinate(t, plan, shard.Config{}, httpBackend(t, primed))

	pfC := cache.WithPeerFill(cache.NewMemory(0), fleet.NewFetcher("c", registry.Members).Fetch)
	srvC := newDaemon(server.WithCache(pfC))
	rs, p := coordinate(t, plan, shard.Config{}, httpBackend(t, serve(t, srvC.Handler())))
	cleanProgress(t, cells, p)
	// Progress counts hits before canonicalization clears the Cached
	// hints; the peer-hit counter says where the payloads came from.
	if p.CacheHits != cells || p.CacheMisses != 0 {
		t.Fatalf("cold daemon progress %+v, want %d cache hits", p, cells)
	}
	if st := pfC.Stats(); st.PeerHits != int64(cells) {
		t.Fatalf("peer hits %d, want %d", st.PeerHits, cells)
	}
	if n := srvC.Stats().Simulations; n != 0 {
		t.Fatalf("cold peer-fill daemon simulated %d cells", n)
	}
	return []*vexsmt.ResultSet{rs}
}

func newService(t *testing.T, opts ...vexsmt.Option) *vexsmt.Service {
	t.Helper()
	svc, err := vexsmt.New(append([]vexsmt.Option{vexsmt.WithScale(testScale)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func collect(t *testing.T, svc *vexsmt.Service, plan vexsmt.Plan) *vexsmt.ResultSet {
	t.Helper()
	rs, err := svc.Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// newDaemon builds a daemon at the matrix's scale and seed. In-process
// daemons resolve workloads against the corpus identityGrids loaded.
func newDaemon(opts ...server.Option) *server.Server {
	return server.New(testScale, 1, 4, opts...)
}

// serve listens on a local port for the rest of the test and returns the
// base URL.
func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

func httpBackend(t *testing.T, url string, opts ...shard.HTTPOption) shard.Backend {
	t.Helper()
	b, err := shard.NewHTTP(url, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// coordinate runs plan over a coordinator of backends configured by cfg
// (at the matrix's scale and seed) and returns the result with the final
// progress.
func coordinate(t *testing.T, plan vexsmt.Plan, cfg shard.Config, backends ...shard.Backend) (*vexsmt.ResultSet, shard.Progress) {
	t.Helper()
	var last shard.Progress
	cfg.Scale, cfg.Seed = testScale, 1
	cfg.OnProgress = func(p shard.Progress) { last = p }
	coord, err := shard.New(cfg, backends...)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := coord.Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return rs, last
}

// cleanProgress asserts a fault-free coordinated run delivered every
// cell on its first attempt.
func cleanProgress(t *testing.T, cells int, p shard.Progress) {
	t.Helper()
	if p.CellsDone != cells || p.CellsTotal != cells || p.Retries != 0 {
		t.Fatalf("final progress %+v, want %d of %d cells and no retry", p, cells, cells)
	}
}

// simulatedOnce asserts svcs between them ran the simulator cells times.
func simulatedOnce(t *testing.T, cells int, svcs ...*vexsmt.Service) {
	t.Helper()
	var n int64
	for _, svc := range svcs {
		n += svc.SimulationsRun()
	}
	if n != int64(cells) {
		t.Fatalf("%d simulator runs, want %d", n, cells)
	}
}

// stored asserts a cold cached run simulated every cell once and stored
// each, with no hit.
func stored(t *testing.T, cells int, svc *vexsmt.Service) {
	t.Helper()
	simulatedOnce(t, cells, svc)
	if st := svc.CacheStats(); st.Hits != 0 || st.Puts != int64(cells) {
		t.Fatalf("cold cache stats %+v, want 0 hits / %d puts", st, cells)
	}
}

// recalled asserts a warm run served every cell from its cache — no
// simulation, one hit per cell since before, no new miss — and flagged
// each delivered cell as cached.
func recalled(t *testing.T, cells int, svc *vexsmt.Service, before vexsmt.CacheStats, rs *vexsmt.ResultSet) {
	t.Helper()
	simulatedOnce(t, 0, svc)
	if st := svc.CacheStats(); st.Hits-before.Hits != int64(cells) || st.Misses != before.Misses {
		t.Fatalf("warm cache stats %+v (before %+v), want %d more hits and no miss", st, before, cells)
	}
	for _, c := range rs.Cells {
		if !c.Cached {
			t.Fatalf("warm cell %s not flagged cached", c.CellSpec)
		}
	}
}
