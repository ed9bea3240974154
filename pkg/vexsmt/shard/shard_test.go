package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vexsmt/internal/isa"
	"vexsmt/internal/synth"
	"vexsmt/internal/trace"
	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
	"vexsmt/pkg/vexsmt/server"
	"vexsmt/pkg/vexsmt/shard"
)

// testScale keeps simulation-backed tests fast; every assertion is
// structural or bit-identity, never statistical.
const testScale = 20000

// fullGrid is the complete figure grid: every technique, mix and machine
// size the paper's Figures 14–16 evaluate.
var fullGrid = vexsmt.Plan{Figures: []string{"14", "15", "16"}}

func testService(t *testing.T) *vexsmt.Service { return testServiceAt(t, testScale) }

func testServiceAt(t *testing.T, scale int64, opts ...vexsmt.Option) *vexsmt.Service {
	t.Helper()
	svc, err := vexsmt.New(append([]vexsmt.Option{vexsmt.WithScale(scale)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

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

func collectBaseline(t *testing.T, svc *vexsmt.Service, plan vexsmt.Plan) string {
	t.Helper()
	rs, err := svc.Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return encodeCanonical(t, rs)
}

// TestCoordinatorMatchesCollectLocal is the in-process half of the
// cell-scheduling determinism property: for several backend counts, a
// coordinated run over in-process backends is bit-identical to a single
// Service.Collect of the full figure grid. All backends wrap the baseline
// service, so the whole test simulates the grid exactly once.
func TestCoordinatorMatchesCollectLocal(t *testing.T) {
	svc := testService(t)
	want := collectBaseline(t, svc, fullGrid)
	for _, k := range []int{1, 2, 3} {
		var backends []shard.Backend
		for i := 0; i < k; i++ {
			backends = append(backends, shard.NewLocal("local-"+string(rune('a'+i)), svc))
		}
		var last shard.Progress
		coord, err := shard.New(shard.Config{
			Scale:      testScale,
			Seed:       svc.Seed(),
			OnProgress: func(p shard.Progress) { last = p },
		}, backends...)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := coord.Collect(context.Background(), fullGrid)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := encodeCanonical(t, rs); got != want {
			t.Fatalf("k=%d: coordinated result differs from Service.Collect", k)
		}
		if last.CellsDone != last.CellsTotal || last.Retries != 0 {
			t.Fatalf("k=%d: final progress %+v", k, last)
		}
	}
}

// TestCoordinatorMatchesCollectHTTP is the remote half of the property:
// the same grid coordinated cell-by-cell across two real vexsmtd servers
// (httptest) over the /v1 plan/results protocol stays bit-identical to
// the single-process run.
func TestCoordinatorMatchesCollectHTTP(t *testing.T) {
	// Every cell is a fresh daemon-side service (no cross-plan
	// memoization), so this test runs at a finer scale than the in-process
	// one to stay cheap.
	const httpScale = 50000
	want := collectBaseline(t, testServiceAt(t, httpScale), fullGrid)
	a := httptest.NewServer(server.New(httpScale, 1, 4).Handler())
	defer a.Close()
	b := httptest.NewServer(server.New(httpScale, 1, 4).Handler())
	defer b.Close()
	var last shard.Progress
	coord, err := shard.New(shard.Config{
		Scale:      httpScale,
		Seed:       1,
		OnProgress: func(p shard.Progress) { last = p },
	}, httpBackends(t, a.URL, b.URL)...)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := coord.Collect(context.Background(), fullGrid)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeCanonical(t, rs); got != want {
		t.Fatal("coordinated HTTP result differs from Service.Collect")
	}
	if last.CellsDone != 144 || last.CellsTotal != 144 {
		t.Fatalf("final progress %+v", last)
	}
}

func httpBackends(t *testing.T, urls ...string) []shard.Backend {
	t.Helper()
	out := make([]shard.Backend, len(urls))
	for i, u := range urls {
		b, err := shard.NewHTTP(u)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// countingTransport counts requests by "METHOD path".
type countingTransport struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.n[req.Method+" "+req.URL.Path]++
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

func (c *countingTransport) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = make(map[string]int)
	return n
}

// TestCoordinatorOneRequestPerCell pins the protocol's cost: a coordinated
// warm sweep of N cells sends exactly N requests besides its health
// probes — one stream-form POST per cell, with no results GET and no
// DELETE.
func TestCoordinatorOneRequestPerCell(t *testing.T) {
	plan := vexsmt.Plan{Figures: []string{"14"}}
	ts := httptest.NewServer(server.New(testScale, 1, 4, server.WithCache(cache.NewMemory(0))).Handler())
	defer ts.Close()
	counts := &countingTransport{n: make(map[string]int)}
	be, err := shard.NewHTTP(ts.URL, shard.WithClient(&http.Client{Transport: counts}))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := shard.New(shard.Config{Scale: testScale, Seed: 1}, be)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Collect(context.Background(), plan); err != nil { // prime the cache
		t.Fatal(err)
	}
	counts.take()
	rs, err := coord.Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	got := counts.take()
	cells := len(rs.Cells)
	if cells == 0 || got["POST /v1/plans"] != cells || got["GET /healthz"] == 0 ||
		len(got) != 2 {
		t.Fatalf("warm sweep of %d cells sent %v; want %d POST /v1/plans plus GET /healthz probes only",
			cells, got, cells)
	}
}

// failFirst wraps a backend and fails its first n Runs with a transient
// error, simulating a machine that dies and is failed over.
type failFirst struct {
	shard.Backend
	n       int64
	tripped atomic.Int64
}

func (f *failFirst) Run(ctx context.Context, job shard.Job) (*vexsmt.ResultSet, error) {
	if f.tripped.Add(1) <= f.n {
		return nil, errors.New("injected backend death")
	}
	return f.Backend.Run(ctx, job)
}

// TestCoordinatorFailoverLocal: cells whose backend dies are retried on
// the surviving backend and the output is still bit-identical; the
// retries are visible in the progress feed.
func TestCoordinatorFailoverLocal(t *testing.T) {
	svc := testService(t)
	want := collectBaseline(t, svc, fullGrid)
	flaky := &failFirst{Backend: shard.NewLocal("flaky", svc), n: 2}
	var last shard.Progress
	coord, err := shard.New(shard.Config{
		Scale:      testScale,
		Seed:       svc.Seed(),
		OnProgress: func(p shard.Progress) { last = p },
	}, flaky, shard.NewLocal("steady", svc))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := coord.Collect(context.Background(), fullGrid)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeCanonical(t, rs); got != want {
		t.Fatal("failover result differs from Service.Collect")
	}
	if flaky.tripped.Load() == 0 {
		t.Fatal("flaky backend was never used — failover untested")
	}
	if last.Retries < 1 {
		t.Fatalf("no retry recorded: %+v", last)
	}
	if last.CellsDone != last.CellsTotal {
		t.Fatalf("progress double-counted or lost cells across retries: %+v", last)
	}
}

// TestCoordinatorFailoverHTTP kills the first two cell submissions on one
// daemon and expects the coordinator to rerun those cells on the
// surviving daemon with no effect on the merged bits — the paper-grid
// equivalent of losing a machine mid-sweep.
func TestCoordinatorFailoverHTTP(t *testing.T) {
	plan := vexsmt.Plan{Figures: []string{"14"}}
	want := collectBaseline(t, testService(t), plan)
	a := httptest.NewServer(server.New(testScale, 1, 2).Handler())
	defer a.Close()
	b := httptest.NewServer(server.New(testScale, 1, 2).Handler())
	defer b.Close()
	backends := httpBackends(t, a.URL, b.URL)
	flaky := &failFirst{Backend: backends[0], n: 2}
	coord, err := shard.New(shard.Config{
		Scale: testScale,
		Seed:  1,
	}, flaky, backends[1])
	if err != nil {
		t.Fatal(err)
	}
	rs, err := coord.Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeCanonical(t, rs); got != want {
		t.Fatal("mid-run failover result differs from Service.Collect")
	}
	if flaky.tripped.Load() == 0 {
		t.Fatal("flaky backend was never used — failover untested")
	}
}

// TestWorkStealingDrainsStragglerBackend: one backend is an order of
// magnitude slower per cell; the fast backend must steal most of the
// slow one's queue and the output stays bit-identical.
func TestWorkStealingDrainsStragglerBackend(t *testing.T) {
	svc := testService(t)
	want := collectBaseline(t, svc, fullGrid)
	slow := &slowBackend{Backend: shard.NewLocal("slow", svc), delay: 20 * time.Millisecond}
	var last shard.Progress
	coord, err := shard.New(shard.Config{
		Scale:      testScale,
		Seed:       svc.Seed(),
		OnProgress: func(p shard.Progress) { last = p },
	}, slow, shard.NewLocal("fast", svc))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := coord.Collect(context.Background(), fullGrid)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeCanonical(t, rs); got != want {
		t.Fatal("stolen cells changed the result bits")
	}
	if last.Stolen == 0 {
		t.Fatalf("no cells were stolen from the straggler: %+v", last)
	}
	if n := slow.ran.Load(); n >= 144 {
		t.Fatalf("slow backend ran all %d cells — stealing is inert", n)
	}
}

type slowBackend struct {
	shard.Backend
	delay time.Duration
	ran   atomic.Int64
}

func (s *slowBackend) Run(ctx context.Context, job shard.Job) (*vexsmt.ResultSet, error) {
	s.ran.Add(1)
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.Backend.Run(ctx, job)
}

// runningPlans reports how many plans a vexsmtd lists as running.
func runningPlans(t *testing.T, baseURL string) int {
	t.Helper()
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Running int `json:"running"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Running
}

// TestCoordinatorCancelPropagatesDelete: cancelling a coordinated run must
// reach the daemons — cancellation closes the stream — so their
// running-plan counts drain to zero promptly instead of simulating to
// completion.
func TestCoordinatorCancelPropagatesDelete(t *testing.T) {
	const slowScale = 50 // 4M instrs per cell: the grid cannot finish before the cancel lands
	a := httptest.NewServer(server.New(slowScale, 1, 2).Handler())
	defer a.Close()
	b := httptest.NewServer(server.New(slowScale, 1, 2).Handler())
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	coord, err := shard.New(shard.Config{
		Scale: slowScale,
		Seed:  1,
	}, httpBackends(t, a.URL, b.URL)...)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := coord.Collect(ctx, fullGrid)
		done <- err
	}()
	// Cancel as soon as the daemons report cells running — no cell needs
	// to complete first.
	deadlineUp := time.Now().Add(30 * time.Second)
	for runningPlans(t, a.URL)+runningPlans(t, b.URL) < 2 {
		if time.Now().After(deadlineUp) {
			t.Fatal("cells not running on the daemons within 30s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Collect after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Collect did not return within 20s of cancellation")
	}
	deadline := time.Now().Add(10 * time.Second)
	for runningPlans(t, a.URL)+runningPlans(t, b.URL) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("daemons still report running plans 10s after cancel (a=%d b=%d)",
				runningPlans(t, a.URL), runningPlans(t, b.URL))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestPlacementSkipsUnhealthyBackend: a daemon whose /healthz fails never
// receives a cell; the healthy one absorbs the whole grid.
func TestPlacementSkipsUnhealthyBackend(t *testing.T) {
	plan := vexsmt.Plan{Figures: []string{"14"}}
	want := collectBaseline(t, testService(t), plan)
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "sick", http.StatusServiceUnavailable)
	}))
	defer sick.Close()
	healthy := httptest.NewServer(server.New(testScale, 1, 2).Handler())
	defer healthy.Close()
	coord, err := shard.New(shard.Config{
		Scale: testScale,
		Seed:  1,
	}, httpBackends(t, sick.URL, healthy.URL)...)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := coord.Collect(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeCanonical(t, rs); got != want {
		t.Fatal("result with an unhealthy backend differs from Service.Collect")
	}
}

// rewriteJobBackend runs a rewritten copy of every job: a backend that
// quietly simulates a different cell than the job named (another mix, the
// static front end for a modeled one, another trace), then honestly
// reports the cell it did simulate.
type rewriteJobBackend struct {
	shard.Backend
	rewrite func(*vexsmt.CellSpec)
}

func (w *rewriteJobBackend) Run(ctx context.Context, job shard.Job) (*vexsmt.ResultSet, error) {
	job.Cells = append([]vexsmt.CellSpec(nil), job.Cells...)
	for i := range job.Cells {
		w.rewrite(&job.Cells[i])
	}
	return w.Backend.Run(ctx, job)
}

// TestCoordinatorRejectsWrongCellIdentity: a backend answering a one-cell
// job with a different cell must not slip into the result set under the
// job's name (the guarantee the old merge's conflict detection provided).
// The check covers the whole cell identity — a trace cell has no mix, and
// a static answer to a tage cell differs only in predictor — and the
// refusal stays retryable, so an honest backend then runs the real cell.
func TestCoordinatorRejectsWrongCellIdentity(t *testing.T) {
	refs, err := vexsmt.LoadWorkloads(writeTestCorpus(t, "idct", "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	svc := testService(t)
	for _, tc := range []struct {
		name    string
		spec    vexsmt.CellSpec
		rewrite func(*vexsmt.CellSpec)
		want    string
	}{
		{"mix", vexsmt.CellSpec{Mix: "llll", Technique: "SMT", Threads: 2},
			func(c *vexsmt.CellSpec) { c.Mix = "hhhh" },
			"liar returned cell hhhh/SMT/2T for job llll/SMT/2T"},
		{"dropped predictor", vexsmt.CellSpec{Mix: "llll", Technique: "SMT", Threads: 2, Predictor: "tage"},
			func(c *vexsmt.CellSpec) { c.Predictor = "" },
			"liar returned cell llll/SMT/2T for job llll/SMT/2T/tage"},
		{"swapped workload", vexsmt.CellSpec{Workload: refs[0], Technique: "SMT", Threads: 2},
			func(c *vexsmt.CellSpec) { c.Workload = refs[1] },
			"liar returned cell " + refs[1] + "/SMT/2T for job " + refs[0] + "/SMT/2T"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := vexsmt.Plan{Cells: []vexsmt.CellSpec{tc.spec}}
			liar := &rewriteJobBackend{Backend: shard.NewLocal("liar", svc), rewrite: tc.rewrite}
			alone, err := shard.New(shard.Config{Scale: testScale, Seed: svc.Seed(), Retries: -1}, liar)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := alone.Collect(context.Background(), plan); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want one containing %q", err, tc.want)
			}
			// Retried away from the liar, the cell lands on the honest
			// backend and exports exactly the single-process bytes.
			coord, err := shard.New(shard.Config{Scale: testScale, Seed: svc.Seed()}, liar, shard.NewLocal("honest", svc))
			if err != nil {
				t.Fatal(err)
			}
			rs, err := coord.Collect(context.Background(), plan)
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeCanonical(t, rs); got != collectBaseline(t, svc, plan) {
				t.Fatal("retried cell differs from Service.Collect")
			}
		})
	}
}

// writeTestCorpus records the named synthetic profiles as .vxt traces in
// a fresh directory, the corpus tracegen -record would produce.
func writeTestCorpus(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range names {
		p, ok := synth.ByName(name)
		if !ok {
			t.Fatalf("no synthetic profile %q", name)
		}
		f, err := os.Create(filepath.Join(dir, name+".vxt"))
		if err != nil {
			t.Fatal(err)
		}
		instrs := trace.Record(synth.MustNewGenerator(p, isa.ST200x4), 2000)
		if err := trace.Write(f, name, isa.ST200x4.Clusters, instrs); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLocalBackendRejectsForeignJob: a Local backend must refuse to run a
// job at a seed/scale its immutable service was not built for.
func TestLocalBackendRejectsForeignJob(t *testing.T) {
	svc := testService(t)
	l := shard.NewLocal("local", svc)
	cells, err := svc.PlanCells(vexsmt.Plan{Cells: []vexsmt.CellSpec{
		{Mix: "llll", Technique: "SMT", Threads: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Run(context.Background(), shard.Job{Cells: cells, Scale: testScale, Seed: 99}); err == nil {
		t.Fatal("foreign seed accepted")
	}
	if _, err := l.Run(context.Background(), shard.Job{Cells: cells, Scale: 1, Seed: svc.Seed()}); err == nil {
		t.Fatal("foreign scale accepted")
	}
}

// TestCoordinatorPredictorSweepMatchesCollect is the distributed half of
// the predictor-axis property: a static-vs-bimodal sweep of Figure 14
// coordinated over in-process and real HTTP backends must merge to
// exactly the bytes a single-process Collect of the same plan produces —
// the predictor axis adds cells, never nondeterminism.
func TestCoordinatorPredictorSweepMatchesCollect(t *testing.T) {
	sweep := vexsmt.Plan{Figures: []string{"14"}, Predictors: []string{"static", "bimodal"}}
	svc := testService(t)
	want := collectBaseline(t, svc, sweep)

	t.Run("local", func(t *testing.T) {
		coord, err := shard.New(shard.Config{Scale: testScale, Seed: svc.Seed()},
			shard.NewLocal("a", svc), shard.NewLocal("b", svc))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := coord.Collect(context.Background(), sweep)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeCanonical(t, rs); got != want {
			t.Fatal("coordinated predictor sweep differs from Service.Collect")
		}
		// Both models actually ran: half the cells carry the modeled name.
		var modeled int
		for _, c := range rs.Cells {
			if c.Predictor == "bimodal" {
				modeled++
			}
		}
		if modeled == 0 || modeled != len(rs.Cells)/2 {
			t.Fatalf("%d of %d cells are bimodal, want an even split", modeled, len(rs.Cells))
		}
	})

	t.Run("http", func(t *testing.T) {
		a := httptest.NewServer(server.New(testScale, 1, 4).Handler())
		defer a.Close()
		b := httptest.NewServer(server.New(testScale, 1, 4).Handler())
		defer b.Close()
		coord, err := shard.New(shard.Config{Scale: testScale, Seed: 1},
			httpBackends(t, a.URL, b.URL)...)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := coord.Collect(context.Background(), sweep)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeCanonical(t, rs); got != want {
			t.Fatal("two-daemon predictor sweep differs from Service.Collect")
		}
	})
}

// TestWarmCacheCoordinatedCollect is the distributed half of the cache
// property (the single-process half lives in pkg/vexsmt): over K ∈ {1,3}
// backends sharing one on-disk cache directory, a warm coordinated
// Collect of the full figure grid is byte-identical to the cold run and
// to the uncached single-process baseline, performs zero simulator runs,
// and reports every cell as a cache hit.
func TestWarmCacheCoordinatedCollect(t *testing.T) {
	baseline := collectBaseline(t, testService(t), fullGrid)
	for _, k := range []int{1, 3} {
		k := k
		t.Run(map[int]string{1: "K=1", 3: "K=3"}[k], func(t *testing.T) {
			dir := t.TempDir()
			newBackends := func() ([]shard.Backend, []*vexsmt.Service) {
				var bs []shard.Backend
				var svcs []*vexsmt.Service
				for i := 0; i < k; i++ {
					d, err := cache.NewDisk(dir)
					if err != nil {
						t.Fatal(err)
					}
					svc := testServiceAt(t, testScale, vexsmt.WithCache(d))
					svcs = append(svcs, svc)
					bs = append(bs, shard.NewLocal("cached-"+string(rune('a'+i)), svc))
				}
				return bs, svcs
			}
			run := func() (string, shard.Progress, []*vexsmt.Service) {
				bs, svcs := newBackends()
				var last shard.Progress
				coord, err := shard.New(shard.Config{
					Scale:      testScale,
					Seed:       1,
					OnProgress: func(p shard.Progress) { last = p },
				}, bs...)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := coord.Collect(context.Background(), fullGrid)
				if err != nil {
					t.Fatal(err)
				}
				return encodeCanonical(t, rs), last, svcs
			}

			cold, coldProg, _ := run()
			if cold != baseline {
				t.Fatal("cold cached run differs from uncached baseline")
			}
			if coldProg.CacheHits != 0 {
				// Backends share the directory, so a cell simulated on one
				// backend could in principle be read back by another — but
				// the scheduler runs each cell exactly once.
				t.Fatalf("cold run reported cache hits: %+v", coldProg)
			}

			warm, warmProg, svcs := run()
			if warm != baseline {
				t.Fatal("warm cached run is not byte-identical to the cold run")
			}
			if warmProg.CacheHits != 144 || warmProg.CacheMisses != 0 {
				t.Fatalf("warm run progress %+v, want 144 hits / 0 misses", warmProg)
			}
			var sims int64
			for _, svc := range svcs {
				sims += svc.SimulationsRun()
			}
			if sims != 0 {
				t.Fatalf("warm run performed %d simulator runs, want 0", sims)
			}
		})
	}
}
