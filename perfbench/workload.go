package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"vexsmt/pkg/vexsmt"
)

// workloadSpec is one benchmark workload. All three are closed loops: one
// client submits a sweep, waits for the canonical ResultSet, then submits
// the next.
type workloadSpec struct {
	name   string
	slots  int  // cells in flight (the clamp on advertised capacity)
	procs  int  // GOMAXPROCS of the measuring process
	corpus bool // the plan adds the trace-corpus cells under tage
	why    string
}

var workloads = []workloadSpec{
	{name: "cold-sweep", slots: 2, procs: 2, corpus: true,
		why: "every cell of the 208-cell Fig. 14-16 grid plus corpus-under-tage plan simulated in a fresh process over an empty disk cache: simulator, trace replay, cache writes"},
	{name: "warm-sweep", slots: 1, procs: 1,
		why: "the 144-cell grid recalled from a primed disk cache, one cell in flight: zero simulation, so only the serving path (HTTP, jobs, disk Get, JSON/NDJSON) is timed"},
	{name: "peer-sweep", slots: 1, procs: 1,
		why: "the 144-cell grid sent to a fresh daemon whose empty local tier peer-fills every cell from a primed daemon: fleet fetch and cache writes, no simulation"},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			w.procs = min(w.procs, runtime.NumCPU())
			w.slots = min(w.slots, w.procs)
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// runConfig is everything one measuring process needs.
type runConfig struct {
	wl      workloadSpec
	seed    uint64 // plan seed, derived from --seed by planSeed
	scale   int64
	seconds float64
	trace   bool
	corpus  string // trace corpus directory
	dir     string // result-cache directory: empty (cold) or primed
	spans   string // where a traced run writes its spans

	// tamper, when set, alters each sweep's ResultSet before it is
	// checked; tests use it to prove the digest check bites.
	tamper func(*vexsmt.ResultSet)
}

const (
	defaultScale = 8000
	// goldenSeeds is how many plan seeds have golden digests; --seed n
	// runs plan seed n mod goldenSeeds.
	goldenSeeds = 16
)

func planSeed(seed int64) uint64 { return uint64(((seed % goldenSeeds) + goldenSeeds) % goldenSeeds) }

// gridPlan is the paper's Figure 14+15+16 grid: 144 synthetic cells under
// the static predictor.
func gridPlan() vexsmt.Plan { return vexsmt.Plan{Figures: []string{"14", "15", "16"}} }

// coldPlan adds every corpus workload under every technique at 2 and 4
// threads with the tage predictor, as explicit cells: Plan.Predictors
// would cross the synthetic grid too.
func coldPlan(refs []string) vexsmt.Plan {
	p := gridPlan()
	for _, ref := range refs {
		for _, threads := range []int{2, 4} {
			for _, tech := range vexsmt.Techniques() {
				p.Cells = append(p.Cells, vexsmt.CellSpec{Workload: ref, Technique: tech, Threads: threads, Predictor: "tage"})
			}
		}
	}
	return p
}

// workloadPlan returns the workload's plan, loading the corpus into the
// process's shared store when the plan needs it.
func workloadPlan(wl workloadSpec, corpus string) (vexsmt.Plan, error) {
	if !wl.corpus {
		return gridPlan(), nil
	}
	refs, err := vexsmt.LoadWorkloads(corpus)
	if err != nil {
		return vexsmt.Plan{}, err
	}
	return coldPlan(refs), nil
}

//go:embed golden.json
var goldenJSON []byte

func goldenKey(wl string, scale int64, seed uint64) string {
	return fmt.Sprintf("%s/scale=%d/seed=%d", wl, scale, seed)
}

func goldenDigest(wl string, scale int64, seed uint64) (string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", fmt.Errorf("golden.json: %w", err)
	}
	d, ok := g[goldenKey(wl, scale, seed)]
	if !ok {
		return "", fmt.Errorf("no golden digest for %s (regenerate with -regen)", goldenKey(wl, scale, seed))
	}
	return d, nil
}

// exportDigest is the SHA-256 of rs's canonical export, the bytes
// vexsmt.EncodeToFile would write. rs is not modified.
func exportDigest(rs *vexsmt.ResultSet) string {
	cp := *rs
	cp.Cells = append([]vexsmt.CellResult(nil), rs.Cells...)
	cp.Canonicalize()
	var buf bytes.Buffer
	_ = vexsmt.EncodeResults(&buf, &cp) // a bytes.Buffer write cannot fail
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// referenceDigest computes a plan's digest independently of everything
// the benchmark measures: one cache-off in-process Service.Collect.
func referenceDigest(ctx context.Context, plan vexsmt.Plan, scale int64, seed uint64) (string, error) {
	svc, err := vexsmt.New(vexsmt.WithScale(scale), vexsmt.WithSeed(seed), vexsmt.WithParallelism(runtime.GOMAXPROCS(0)))
	if err != nil {
		return "", err
	}
	rs, err := svc.Collect(ctx, plan)
	if err != nil {
		return "", err
	}
	return exportDigest(rs), nil
}

// check verifies one sweep: no error, the canonical export's digest, and
// the workload's invariant on simulator runs and cache traffic. It returns
// one line per violation.
func check(cfg runConfig, st *stack, out sweepOut, cells int, simsBefore int64, golden string) []string {
	if out.err != nil {
		return []string{fmt.Sprintf("sweep failed: %v", out.err)}
	}
	var problems []string
	if cfg.tamper != nil {
		cfg.tamper(out.rs)
	}
	if d := exportDigest(out.rs); d != golden {
		problems = append(problems, fmt.Sprintf("export digest %s, golden %s", d[:16], golden[:16]))
	}
	sims := st.simulations() - simsBefore
	switch cfg.wl.name {
	case "cold-sweep":
		if sims != int64(cells) || st.prog.CacheMisses != cells {
			problems = append(problems, fmt.Sprintf("cold sweep simulated %d (misses %d), want %d", sims, st.prog.CacheMisses, cells))
		}
	case "warm-sweep":
		if sims != 0 || st.prog.CacheHits != cells {
			problems = append(problems, fmt.Sprintf("warm sweep simulated %d (hits %d of %d), want 0", sims, st.prog.CacheHits, cells))
		}
	case "peer-sweep":
		b := st.target().srv.Stats()
		if sims != 0 || b.Cache.PeerHits != int64(cells) {
			problems = append(problems, fmt.Sprintf("peer sweep: B simulated %d, peer hits %d, want 0 and %d", sims, b.Cache.PeerHits, cells))
		}
	}
	return problems
}

// childResult is what one measuring process reports to the parent.
type childResult struct {
	Setup        []timing      `json:"setup"`
	Sweeps       []timing      `json:"sweeps"`        // untraced sweeps
	TracedSweeps []timing      `json:"traced_sweeps"` // traced sweeps
	CellMs       [][]float64   `json:"cell_ms"`       // per untraced sweep, its Backend.Run durations
	Instrs       int64         `json:"instrs"`        // Σ Counters.Instrs of one sweep
	Cells        int           `json:"cells"`
	Attempts     int           `json:"attempts"`
	Failed       int           `json:"failed"`
	Problems     []string      `json:"problems,omitempty"`
	OpenMs       []float64     `json:"cache_open_ms"`
	LoadMs       []float64     `json:"wstore_load_ms"`
	Layer        *layerStats   `json:"layer,omitempty"`
	MaxRSSKB     int64         `json:"max_rss_kb"`
	Probes       []probeSample `json:"probes,omitempty"` // host-speed probe bursts run between sweeps
}

// timing is one timed interval: its length in seconds and its ends in Unix
// nanoseconds, by which the parent finds the host's speed at the time.
type timing struct {
	S    float64 `json:"s"`
	From int64   `json:"from"`
	To   int64   `json:"to"`
}

func timed(from time.Time, d time.Duration) timing {
	return timing{S: d.Seconds(), From: from.UnixNano(), To: from.Add(d).UnixNano()}
}

// measure runs one measuring process's share of a workload: set-up, then
// sweeps until the time is up (cold: exactly one sweep, since a cold sweep
// needs a fresh process). procStart is when the process started.
func measure(ctx context.Context, cfg runConfig, procStart time.Time) (*childResult, error) {
	res := &childResult{}
	golden, err := goldenDigest(cfg.wl.name, cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		res.Layer = newLayerStats()
	}

	// Warm and peer sweeps are short: the host-speed probe runs between
	// them, in this process and on the CPU it is bound to, so it never
	// delays a cell. The parent probes cold sweeps (see runParent).
	var probe *hostProbe
	if cfg.wl.name != "cold-sweep" {
		probe = newHostProbe()
	}
	var lastProbe time.Time
	sampleHost := func() {
		if probe != nil && time.Since(lastProbe) >= probeGap {
			res.Probes = append(res.Probes, probe.run())
			lastProbe = time.Now()
		}
	}

	// Set-up. A cold process sets up once (its first corpus load is the
	// cost being measured); warm and peer set up several times and keep
	// the last stack.
	reps := 15
	if cfg.wl.name == "cold-sweep" {
		reps = 1
	}
	var kept *stack
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		var st *stack
		if cfg.wl.name == "cold-sweep" {
			st, err = newStack(cfg, tr)
		} else {
			st, err = newStack(cfg, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.Setup = append(res.Setup, timed(t0, time.Since(t0)))
		res.OpenMs = append(res.OpenMs, st.openMs)
		if st.loadMs > 0 {
			res.LoadMs = append(res.LoadMs, st.loadMs)
		}
		if kept != nil {
			kept.close()
		}
		kept = st
		sampleHost()
	}
	defer kept.close()

	plan, err := workloadPlan(cfg.wl, cfg.corpus)
	if err != nil {
		return nil, err
	}
	cells, err := planSize(plan, cfg)
	if err != nil {
		return nil, err
	}
	res.Cells = cells

	// A traced warm or peer process alternates sweeps between the untraced
	// stack and a traced twin, so tracing overhead is measured in-process.
	stacks := []*stack{kept}
	if cfg.trace && cfg.wl.name != "cold-sweep" {
		traced, err := newStack(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		defer traced.close()
		stacks = []*stack{traced, kept}
	}

	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		st := stacks[i%len(stacks)]
		if cfg.wl.name == "peer-sweep" && i >= len(stacks) {
			if err := st.renewPeerB(); err != nil {
				return nil, fmt.Errorf("renew peer B: %w", err)
			}
		}
		traced := st.tr != nil
		var mem0 runtime.MemStats
		var mark int
		var errs0 int64
		if traced {
			runtime.ReadMemStats(&mem0)
			mark = tr.mark()
			errs0 = st.cacheErrors()
		}
		sims0 := st.simulations()
		out := st.sweep(ctx, plan)
		if traced {
			var mem1 runtime.MemStats
			runtime.ReadMemStats(&mem1)
			res.Layer.addSweep(st, out, tr.since(mark), plan, &mem0, &mem1, st.simulations()-sims0, st.cacheErrors()-errs0)
		}
		sampleHost()
		problems := check(cfg, st, out, cells, sims0, golden)

		// fail_ratio is (failed cells + retried attempts) / attempts, and a
		// failed check fails every cell of the sweep.
		res.Attempts += len(out.runs)
		if len(problems) > 0 {
			res.Failed += cells + st.prog.Retries
			for _, p := range problems {
				res.Problems = append(res.Problems, fmt.Sprintf("sweep %d: %s", i, p))
			}
		} else {
			for _, r := range out.runs {
				if r.err {
					res.Failed++
				}
			}
		}
		if out.rs != nil {
			res.Instrs = 0
			for _, c := range out.rs.Cells {
				res.Instrs += c.Counters.Instrs
			}
		}
		if traced {
			res.TracedSweeps = append(res.TracedSweeps, timed(out.start, out.wall))
		} else {
			res.Sweeps = append(res.Sweeps, timed(out.start, out.wall))
			ms := make([]float64, len(out.runs))
			for j, r := range out.runs {
				ms[j] = float64(r.end.Sub(r.start).Nanoseconds()) / 1e6
			}
			res.CellMs = append(res.CellMs, ms)
		}
		if cfg.wl.name == "cold-sweep" || (time.Now().After(deadline) && i%len(stacks) == len(stacks)-1) {
			break
		}
	}
	if tr != nil && cfg.spans != "" {
		if err := tr.writeJSON(cfg.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

// planSize resolves a plan's unique cell count the way the coordinator
// does, through a scratch service at the run's seed and scale.
func planSize(plan vexsmt.Plan, cfg runConfig) (int, error) {
	svc, err := vexsmt.New(vexsmt.WithScale(cfg.scale), vexsmt.WithSeed(cfg.seed))
	if err != nil {
		return 0, err
	}
	return svc.PlanSize(plan)
}
