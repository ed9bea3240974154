package vexsmt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"vexsmt/internal/core"
	"vexsmt/internal/sim"
	"vexsmt/internal/stats"
	"vexsmt/internal/synth"
	"vexsmt/internal/workload"
	"vexsmt/internal/wstore"
	"vexsmt/pkg/vexsmt/sched"
)

// Service is the façade over the simulation stack: a memoizing, concurrent
// cell engine plus the plan vocabulary and the results schema. A Service
// is immutable after New and safe for concurrent use; results are
// memoized per canonical cell, so overlapping plans share simulations.
//
// Concurrent requests for the same cell resolve it exactly once
// (singleflight), and every cell draws its random stream from a seed
// derived purely from the cell's workload identity (CellSpec.seed), so
// results are bit-identical no matter how many workers run a plan or in
// what order. A cell that aborts on cancellation is forgotten rather than
// memoized, so a later call with a live context re-simulates it. The
// worker pool is pkg/vexsmt/sched — the same cell-level scheduler the
// distributed coordinator uses — with the service as its single backend.
type Service struct {
	scale    int64
	seed     uint64
	parallel int
	cache    CellCache
	wl       *wstore.Store // trace store; the process-global one unless a test injects its own

	sims atomic.Int64 // simulator runs actually performed (cache hits excluded)

	mu    sync.Mutex
	cells map[CellSpec]*cellCall
}

// cellCall is one memoized resolution: done closes when run/err are final.
type cellCall struct {
	done   chan struct{}
	run    *stats.Run
	cached bool // recalled from the CellCache rather than simulated
	err    error
}

// New builds a Service. Defaults: 1/100 paper scale, seed 1, GOMAXPROCS
// parallelism, no result cache.
func New(opts ...Option) (*Service, error) {
	s := &Service{
		scale:    100,
		seed:     1,
		parallel: runtime.GOMAXPROCS(0),
		wl:       wstore.Shared(),
		cells:    make(map[CellSpec]*cellCall),
	}
	for _, o := range opts {
		if err := o(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// LoadWorkloads loads a trace corpus directory (.vxt binary traces and
// .vex assembly programs; see internal/wstore) into the process-shared
// workload store and returns the sorted "name@sha256" content references.
// Loading is idempotent and content-addressed — a file already present
// (by hash) is never decoded twice — so daemons can load eagerly at
// startup to fail fast on a bad corpus and advertise what they hold,
// while every Service built afterwards resolves the same names against
// the shared store without touching the directory again.
func LoadWorkloads(dir string) ([]string, error) {
	traces, err := wstore.Shared().LoadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("vexsmt: %w", err)
	}
	refs := make([]string, len(traces))
	for i, t := range traces {
		refs[i] = t.Ref()
	}
	return refs, nil
}

// workloadRef resolves a workload name or "name@sha256" reference against
// the service's trace store to the full reference form.
func (s *Service) workloadRef(nameOrRef string) (string, error) {
	tr, ok := s.wl.Resolve(nameOrRef)
	if !ok {
		have := s.wl.Names()
		if len(have) == 0 {
			return "", fmt.Errorf("vexsmt: workload %q: no trace corpus loaded (LoadWorkloads)", nameOrRef)
		}
		return "", fmt.Errorf("vexsmt: unknown workload %q (have %s)", nameOrRef, strings.Join(have, ", "))
	}
	return tr.Ref(), nil
}

// Scale returns the configured scale divisor of paper scale.
func (s *Service) Scale() int64 { return s.scale }

// Seed returns the configured base seed.
func (s *Service) Seed() uint64 { return s.seed }

// Parallelism returns the configured worker-pool bound.
func (s *Service) Parallelism() int { return s.parallel }

// techniqueList is RunMeta.Techniques: every service runs the same
// technique list, so it is joined once per process.
var techniqueList = strings.Join(Techniques(), ",")

// Meta returns the run metadata stamped onto every ResultSet this service
// produces.
func (s *Service) Meta() RunMeta {
	return RunMeta{
		SchemaVersion: SchemaVersion,
		Seed:          s.seed,
		Scale:         s.scale,
		Parallelism:   s.parallel,
		Techniques:    techniqueList,
	}
}

// CellsSimulated returns how many distinct cells the service has resolved
// (simulated or recalled from cache, including in-flight) so far.
func (s *Service) CellsSimulated() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cells)
}

// SimulationsRun returns how many simulator runs the service has actually
// performed — cache hits are excluded, so a fully warm sweep reports 0.
func (s *Service) SimulationsRun() int64 { return s.sims.Load() }

// CacheStats returns the attached result cache's counters, or zeros when
// the service has no cache (WithCache was not used).
func (s *Service) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.Stats()
}

// cellResult builds the schema type for one canonical cell's outcome.
func (s *Service) cellResult(c CellSpec, r *stats.Run, cached bool, err error) CellResult {
	out := CellResult{CellSpec: c, Seed: c.seed(s.seed)}
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.IPC = r.IPC()
	out.Counters = countersFromRun(r)
	out.Cached = cached
	return out
}

// RunCell simulates (or recalls) one cell. Paired comparisons come free:
// every technique of a (mix, threads) pair shares one seed, so dividing
// two RunCell results reproduces the paper's common-random-numbers
// speedup arithmetic (see SpeedupPct).
func (s *Service) RunCell(ctx context.Context, spec CellSpec) (CellResult, error) {
	c, err := s.canon(spec)
	if err != nil {
		return CellResult{}, err
	}
	r, cached, err := s.run(ctx, c)
	return s.cellResult(c, r, cached, err), err
}

// run returns the memoized run of one canonical cell, resolving it on
// first use, and reports whether it was recalled from the cache rather
// than simulated (a memoized cell reports however it was first
// resolved). Concurrent callers of the same cell share one resolution. A
// waiter piggy-backing on a leader that was cancelled does not inherit
// the foreign context error: if its own context is still live it becomes
// (or joins) the next leader and the cell resolves again — one plan's
// cancellation never poisons another plan sharing cells on the same
// service.
func (s *Service) run(ctx context.Context, c CellSpec) (*stats.Run, bool, error) {
	for {
		s.mu.Lock()
		if call, ok := s.cells[c]; ok {
			s.mu.Unlock()
			select {
			case <-call.done:
				if call.err != nil && isCtxErr(call.err) && ctx.Err() == nil {
					continue // leader cancelled, we are live: retry
				}
				return call.run, call.cached, call.err
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		call := &cellCall{done: make(chan struct{})}
		s.cells[c] = call
		s.mu.Unlock()

		call.run, call.cached, call.err = s.fetchOrSimulate(ctx, c)
		if call.err != nil && ctx.Err() != nil {
			// Cancelled, not failed: drop the memo so a retry re-simulates.
			s.mu.Lock()
			delete(s.cells, c)
			s.mu.Unlock()
		}
		close(call.done)
		return call.run, call.cached, call.err
	}
}

// isCtxErr reports whether err stems from context cancellation or
// deadline expiry (possibly wrapped by simulate).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// fetchOrSimulate resolves one cell: cache first, simulator on a miss,
// populating the cache on the way out. Payloads are the JSON encoding of
// stats.Run (see encodeRun) — all-integer counters, so the round trip is
// exact and a cached cell is bit-identical to a simulated one. A cache
// entry that fails to decode (foreign payload behind a valid checksum)
// degrades to a miss.
func (s *Service) fetchOrSimulate(ctx context.Context, c CellSpec) (*stats.Run, bool, error) {
	var key string
	if s.cache != nil {
		// Every cell of this service shares the (schema, seed, scale)
		// prefix; CacheKey ignores the meta fields that cannot change
		// results.
		key = CacheKey(RunMeta{SchemaVersion: SchemaVersion, Seed: s.seed, Scale: s.scale}, c)
		if b, ok := s.cache.Get(key); ok {
			var r stats.Run
			if err := decodeRun(b, &r); err == nil {
				return &r, true, nil
			}
		}
	}
	r, err := s.simulate(ctx, c)
	if err != nil {
		return nil, false, err
	}
	if s.cache != nil {
		s.cache.Put(key, encodeRun(r))
	}
	return r, false, nil
}

// simulate runs one canonical cell from scratch. It touches no Service
// state beyond the immutable configuration and the simulation counter,
// so any number of cells may simulate at once.
func (s *Service) simulate(ctx context.Context, c CellSpec) (*stats.Run, error) {
	tech, err := core.ParseTechnique(c.Technique)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig(tech, c.Threads).WithScale(s.scale)
	cfg.Seed = c.seed(s.seed)
	cfg.Predictor = c.Predictor
	var sm *sim.Simulator
	if c.Workload != "" {
		sm, err = s.newTraceSim(cfg, c)
	} else {
		var mix workload.Mix
		var profs []synth.Profile
		if mix, err = workload.MixByLabel(c.Mix); err != nil {
			return nil, err
		}
		if profs, err = mix.Profiles(); err != nil {
			return nil, err
		}
		sm, err = sim.NewWorkload(cfg, profs)
	}
	if err != nil {
		return nil, err
	}
	r, err := sm.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("vexsmt: %s: %w", c, err)
	}
	// Counted on completion only, so a cancelled attempt that re-simulates
	// later doesn't double-count and SimulationsRun means what it says.
	s.sims.Add(1)
	return r, nil
}

// newTraceSim builds a simulator whose every hardware context replays the
// cell's trace workload from the shared wstore records: one cursor per
// context, expanding records as it fetches, no per-cell copies. The
// simulator's own seed (context-switch schedule, cache state) still
// derives from the cell, so trace cells are exactly as deterministic as
// synthetic ones.
func (s *Service) newTraceSim(cfg sim.Config, c CellSpec) (*sim.Simulator, error) {
	tr, ok := s.wl.Resolve(c.Workload)
	if !ok {
		return nil, fmt.Errorf("vexsmt: workload %q is not loaded in this process", c.Workload)
	}
	jobs := make([]*sim.Job, c.Threads)
	for i := range jobs {
		r, err := tr.NewReplayer()
		if err != nil {
			return nil, err
		}
		jobs[i] = sim.NewJob(r, cfg.ScaleDiv)
	}
	return sim.New(cfg, jobs)
}

// PlanSize resolves a plan and returns how many unique grid cells it
// simulates, without running anything.
func (s *Service) PlanSize(p Plan) (int, error) {
	cells, err := s.resolve(p)
	return len(cells), err
}

// PlanCells resolves a plan and returns its unique grid cells as public
// CellSpecs, in plan order, without running anything. This is the shard
// unit of distributed execution: a coordinator partitions exactly this
// list, and the union of the parts is exactly what Collect would simulate.
func (s *Service) PlanCells(p Plan) ([]CellSpec, error) {
	return s.resolve(p)
}

// Prefetch simulates every cell of a plan behind a barrier and returns the
// number of unique cells. Figure rendering after a successful Prefetch
// only reads memoized results. For progress observation use Stream.
func (s *Service) Prefetch(ctx context.Context, p Plan) (int, error) {
	cells, err := s.resolve(p)
	if err != nil {
		return 0, err
	}
	return len(cells), s.prefetch(ctx, cells)
}

// prefetch resolves every cell over the scheduler and returns the first
// error. Plain cell errors do not stop the sweep — cells are independent,
// and finishing keeps the memo warm for whoever retries — but cancelling
// ctx stops dispatching and drains the workers.
func (s *Service) prefetch(ctx context.Context, cells []CellSpec) error {
	var first error
	for r := range s.stream(ctx, cells) {
		if r.Err != nil && first == nil {
			first = r.Err
		}
	}
	if err := ctx.Err(); err != nil && first == nil {
		first = err
	}
	return first
}

// stream resolves cells over the cell scheduler (with this service as
// the single backend at the configured parallelism) and delivers each
// outcome as it completes. Cell failures are deterministic — the seed
// travels with the cell — so a retry would reproduce them; they are
// final on the first attempt.
func (s *Service) stream(ctx context.Context, cells []CellSpec) <-chan sched.Result[CellSpec, CellResult] {
	backend := sched.NewFunc("service", s.parallel, func(ctx context.Context, c CellSpec) (CellResult, error) {
		r, cached, err := s.run(ctx, c)
		if err != nil {
			return CellResult{}, sched.Permanent(err)
		}
		return s.cellResult(c, r, cached, nil), nil
	})
	// Run rejects only an empty backend list, and there is one.
	ch, _ := sched.Run(ctx, cells, []sched.Backend[CellSpec, CellResult]{backend}, sched.Options{})
	return ch
}

// Stream resolves a plan and simulates it over the worker pool, delivering
// each CellResult the moment its simulation completes. The channel closes
// when every cell has been delivered, or — after ctx is cancelled — as
// soon as in-flight cells abort (within one simulated timeslice; no
// workers leak). Delivery order is nondeterministic, but each delivered
// result is bit-identical to what a serial run would produce. A cell that
// fails arrives with Err set. A cell undelivered at cancellation either
// aborted (not memoized — a later Stream re-simulates it) or finished
// just as the cancel landed (memoized — a later Stream serves it
// instantly); both paths yield the same bits eventually.
//
// Either drain the channel or cancel ctx: abandoning the channel while
// ctx stays live blocks the delivery goroutine and its worker pool.
func (s *Service) Stream(ctx context.Context, p Plan) (<-chan CellResult, error) {
	cells, err := s.resolve(p)
	if err != nil {
		return nil, err
	}
	ch := s.stream(ctx, cells)
	out := make(chan CellResult)
	go func() {
		defer close(out)
		for r := range ch {
			res := r.Value
			if r.Err != nil {
				res = s.cellResult(r.Item, nil, false, r.Err)
			}
			select {
			case out <- res:
			case <-ctx.Done():
				// Keep draining so the scheduler's workers unwind.
			}
		}
	}()
	return out, nil
}

// Collect runs a plan to completion and returns the sorted, deterministic
// ResultSet: metadata plus every cell in canonical order (see
// ResultSet.Sort). The first cell error (or the context's error) aborts
// the collection.
func (s *Service) Collect(ctx context.Context, p Plan) (*ResultSet, error) {
	ch, err := s.Stream(ctx, p)
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{Meta: s.Meta()}
	var failed *CellResult
	for cell := range ch {
		if cell.Err != "" {
			if failed == nil {
				c := cell
				failed = &c
			}
			continue // keep draining so the pool unwinds
		}
		rs.Cells = append(rs.Cells, cell)
	}
	// Report cancellation as the context's error even when a cancelled
	// cell's outcome won the delivery race, so errors.Is(err,
	// context.Canceled) is deterministic for callers.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if failed != nil {
		return nil, fmt.Errorf("vexsmt: %s: %s", failed.CellSpec, failed.Err)
	}
	rs.Sort()
	return rs, nil
}

// Figure13a measures the paper's single-thread benchmark characterization
// with real and perfect memory, one benchmark per worker, rows in the
// paper's table order. Scales finer than 1/150 (e.g. full paper scale)
// are capped at 1/150 — the characterization is stable there, and finer
// scales only add cost.
func (s *Service) Figure13a(ctx context.Context) ([]Fig13Row, error) {
	paper := workload.PaperFigure13a()
	rows := make([]Fig13Row, len(paper))
	err := sched.ForEach(ctx, s.parallel, len(paper), func(i int) error {
		pr := paper[i]
		prof, ok := synth.ByName(pr.Name)
		if !ok {
			return fmt.Errorf("vexsmt: no profile for %s", pr.Name)
		}
		ipcr, ipcp, err := sim.MeasuredIPC(prof, max(s.scale, 150))
		if err != nil {
			return err
		}
		rows[i] = Fig13Row{
			Name: pr.Name, Class: pr.Class.String(),
			PaperIPCr: pr.IPCr, PaperIPCp: pr.IPCp,
			IPCr: ipcr, IPCp: ipcp,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// prefetchFigure resolves one grid figure's plan and simulates it, so
// figure assembly only reads memoized cells.
func (s *Service) prefetchFigure(ctx context.Context, fig string) error {
	cells, err := s.resolve(Plan{Figures: []string{fig}})
	if err != nil {
		return err
	}
	return s.prefetch(ctx, cells)
}

// Figure14 computes the paper's Figure 14 series (CCSI over CSMT).
func (s *Service) Figure14(ctx context.Context) ([]FigureSeries, error) {
	return s.speedupFigure(ctx, "14")
}

// Figure15 computes the paper's Figure 15 series (COSI/OOSI over SMT).
func (s *Service) Figure15(ctx context.Context) ([]FigureSeries, error) {
	return s.speedupFigure(ctx, "15")
}

// speedupFigure computes every series of one speedup figure (see
// speedupFigures), thread-major in the figure's technique order.
func (s *Service) speedupFigure(ctx context.Context, fig string) ([]FigureSeries, error) {
	if err := s.prefetchFigure(ctx, fig); err != nil {
		return nil, err
	}
	f := speedupFigures[fig]
	var out []FigureSeries
	for _, threads := range paperThreads {
		for _, tech := range f.techs {
			series, err := s.speedups(ctx, tech, f.baseline, threads)
			if err != nil {
				return nil, err
			}
			out = append(out, series)
		}
	}
	return out, nil
}

// speedups computes one series across all nine mixes from the memoized
// cells: each mix's speedup of tech over baseline, and their average.
func (s *Service) speedups(ctx context.Context, tech, baseline core.Technique, threads int) (FigureSeries, error) {
	fs := FigureSeries{
		Label:     fmt.Sprintf("%s over %s, %d-Thread", tech.Name(), baseline.Name(), threads),
		Technique: tech.Name(), Baseline: baseline.Name(), Threads: threads,
	}
	var sum float64
	for _, mix := range paperMixes {
		rt, _, err := s.run(ctx, CellSpec{Mix: mix.Label, Technique: tech.Name(), Threads: threads})
		if err != nil {
			return fs, err
		}
		rb, _, err := s.run(ctx, CellSpec{Mix: mix.Label, Technique: baseline.Name(), Threads: threads})
		if err != nil {
			return fs, err
		}
		pct := stats.SpeedupPct(rt, rb)
		fs.Workloads = append(fs.Workloads, mix.Label)
		fs.Pct = append(fs.Pct, pct)
		sum += pct
	}
	fs.Avg = sum / float64(len(fs.Pct))
	return fs, nil
}

// Figure16 computes the paper's Figure 16 points (absolute IPC of every
// technique averaged over the nine mixes) in the paper's presentation
// order.
func (s *Service) Figure16(ctx context.Context) ([]IPCPoint, error) {
	if err := s.prefetchFigure(ctx, "16"); err != nil {
		return nil, err
	}
	var out []IPCPoint
	for _, threads := range paperThreads {
		for _, tech := range figureTechniques("16") {
			var sum float64
			for _, mix := range paperMixes {
				r, _, err := s.run(ctx, CellSpec{Mix: mix.Label, Technique: tech.Name(), Threads: threads})
				if err != nil {
					return nil, err
				}
				sum += r.IPC()
			}
			out = append(out, IPCPoint{Technique: tech.Name(), Threads: threads,
				IPC: sum / float64(len(paperMixes))})
		}
	}
	return out, nil
}

// ThreadScaling measures one mix under one technique across thread counts
// (not a paper figure; it supports the Section I motivation). Points run
// concurrently and all share the service seed, so every point sees
// identical workload streams and the curve isolates the thread-count
// effect (each point's simulator owns its random stream, so sharing the
// seed is parallel-safe).
func (s *Service) ThreadScaling(ctx context.Context, mixLabel, technique string, threadCounts []int) ([]ScalePoint, error) {
	mix, err := workload.MixByLabel(mixLabel)
	if err != nil {
		return nil, fmt.Errorf("vexsmt: %w", err)
	}
	tech, err := core.ParseTechnique(technique)
	if err != nil {
		return nil, fmt.Errorf("vexsmt: %w", err)
	}
	profs, err := mix.Profiles()
	if err != nil {
		return nil, err
	}
	out := make([]ScalePoint, len(threadCounts))
	err = sched.ForEach(ctx, s.parallel, len(threadCounts), func(i int) error {
		cfg := sim.DefaultConfig(tech, threadCounts[i]).WithScale(s.scale)
		cfg.Seed = s.seed
		sm, err := sim.NewWorkload(cfg, profs)
		if err != nil {
			return err
		}
		r, err := sm.RunContext(ctx)
		if err != nil {
			return err
		}
		out[i] = ScalePoint{Threads: threadCounts[i], IPC: r.IPC()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
