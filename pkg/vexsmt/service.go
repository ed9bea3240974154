package vexsmt

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"vexsmt/internal/bpred"
	"vexsmt/internal/core"
	"vexsmt/internal/experiments"
	"vexsmt/internal/stats"
	"vexsmt/internal/workload"
	"vexsmt/internal/wstore"
)

// Service is the façade over the simulation stack: a memoizing, concurrent
// experiment matrix plus the plan vocabulary and the results schema. A
// Service is immutable after New and safe for concurrent use; results are
// memoized per cell, so overlapping plans share simulations.
type Service struct {
	scale      int64
	seed       uint64
	parallel   int
	techniques []core.Technique
	predictors []string // canonical model names (WithPredictors)
	cache      CellCache

	workloadDir string        // corpus directory (WithWorkloadDir); "" = no trace workloads
	wl          *wstore.Store // trace store; the process-global one unless a test injects its own
	wlRefs      []string      // sorted "name@sha256" references loaded from workloadDir

	m *experiments.Matrix
}

// New builds a Service. Defaults: 1/100 paper scale, seed 1, GOMAXPROCS
// parallelism, all eight techniques, no result cache.
func New(opts ...Option) (*Service, error) {
	s := &Service{
		scale:      100,
		seed:       1,
		parallel:   runtime.GOMAXPROCS(0),
		techniques: core.AllTechniques(),
		predictors: bpred.Names(),
	}
	for _, o := range opts {
		if err := o(s); err != nil {
			return nil, err
		}
	}
	if s.wl == nil {
		s.wl = wstore.Shared()
	}
	if s.workloadDir != "" {
		traces, err := s.wl.LoadDir(s.workloadDir)
		if err != nil {
			return nil, fmt.Errorf("vexsmt: %w", err)
		}
		s.wlRefs = make([]string, len(traces))
		for i, t := range traces {
			s.wlRefs[i] = t.Ref()
		}
	}
	mopts := []experiments.MatrixOption{
		experiments.WithParallelism(s.parallel),
		experiments.WithWorkloadStore(s.wl),
	}
	if s.cache != nil {
		// The key closes over the service's meta: every cell of this
		// service shares the (schema, seed, scale) prefix, and CacheKey
		// ignores the meta fields that cannot change results.
		meta := s.Meta()
		mopts = append(mopts, experiments.WithResultCache(s.cache, func(c experiments.Cell) string {
			return CacheKey(meta, cellSpecOf(c))
		}))
	}
	s.m = experiments.NewMatrix(s.scale, s.seed, mopts...)
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
			return "", fmt.Errorf("vexsmt: workload %q: no trace corpus loaded (WithWorkloadDir)", nameOrRef)
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

// TechniqueNames returns the service's enabled techniques in Figure 16
// order.
func (s *Service) TechniqueNames() []string {
	names := make([]string, len(s.techniques))
	for i, t := range s.techniques {
		names[i] = t.Name()
	}
	return names
}

// PredictorNames returns the service's enabled branch-predictor models in
// canonical order.
func (s *Service) PredictorNames() []string {
	return append([]string(nil), s.predictors...)
}

// WorkloadRefs returns the sorted "name@sha256" references of the trace
// corpus loaded via WithWorkloadDir (nil without one). Workloads loaded
// into the shared store by other services are not listed — these are the
// workloads *this* service advertises.
func (s *Service) WorkloadRefs() []string {
	return append([]string(nil), s.wlRefs...)
}

// Meta returns the run metadata stamped onto every ResultSet this service
// produces.
func (s *Service) Meta() RunMeta {
	return RunMeta{
		SchemaVersion: SchemaVersion,
		Seed:          s.seed,
		Scale:         s.scale,
		Parallelism:   s.parallel,
		Techniques:    strings.Join(s.TechniqueNames(), ","),
	}
}

// CellsSimulated returns how many distinct cells the service has resolved
// (simulated or recalled from cache, including in-flight) so far.
func (s *Service) CellsSimulated() int { return s.m.Cells() }

// SimulationsRun returns how many simulator runs the service has actually
// performed — cache hits are excluded, so a fully warm sweep reports 0.
func (s *Service) SimulationsRun() int64 { return s.m.Simulations() }

// CacheStats returns the attached result cache's counters, or zeros when
// the service has no cache (WithCache was not used).
func (s *Service) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.Stats()
}

// cellResult converts one internal outcome to the schema type.
func (s *Service) cellResult(c experiments.Cell, r *stats.Run, cached bool, err error) CellResult {
	out := CellResult{CellSpec: cellSpecOf(c), Seed: s.m.CellSeed(c)}
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
	c, err := s.cell(spec)
	if err != nil {
		return CellResult{}, err
	}
	if err := s.admit(c); err != nil {
		return CellResult{}, err
	}
	r, cached, err := s.m.RunCellInfo(ctx, c)
	if err != nil {
		return s.cellResult(c, nil, false, err), err
	}
	return s.cellResult(c, r, cached, nil), nil
}

// PlanSize resolves a plan and returns how many unique grid cells it
// simulates, without running anything.
func (s *Service) PlanSize(p Plan) (int, error) {
	ip, err := s.resolve(p)
	if err != nil {
		return 0, err
	}
	return ip.Len(), nil
}

// PlanCells resolves a plan and returns its unique grid cells as public
// CellSpecs, in plan order, without running anything. This is the shard
// unit of distributed execution: a coordinator partitions exactly this
// list, and the union of the parts is exactly what Collect would simulate.
func (s *Service) PlanCells(p Plan) ([]CellSpec, error) {
	ip, err := s.resolve(p)
	if err != nil {
		return nil, err
	}
	out := make([]CellSpec, 0, ip.Len())
	for _, c := range ip.Cells() {
		out = append(out, cellSpecOf(c))
	}
	return out, nil
}

// Prefetch simulates every cell of a plan behind a barrier and returns the
// number of unique cells. Figure rendering after a successful Prefetch
// only reads memoized results. For progress observation use Stream.
func (s *Service) Prefetch(ctx context.Context, p Plan) (int, error) {
	ip, err := s.resolve(p)
	if err != nil {
		return 0, err
	}
	if err := s.m.Prefetch(ctx, ip); err != nil {
		return ip.Len(), err
	}
	return ip.Len(), nil
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
	ip, err := s.resolve(p)
	if err != nil {
		return nil, err
	}
	out := make(chan CellResult)
	go func() {
		defer close(out)
		for o := range s.m.Stream(ctx, ip) {
			select {
			case out <- s.cellResult(o.Cell, o.Run, o.Cached, o.Err):
			case <-ctx.Done():
				// Keep draining so the inner stream's workers unwind.
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

// fig13aRows is the single implementation behind Figure13a and
// RenderFigure("13a"): scales finer than 1/150 (e.g. full paper scale)
// are capped at 1/150 — the characterization is stable there, and finer
// scales only add cost.
func (s *Service) fig13aRows(ctx context.Context) ([]experiments.Fig13Row, error) {
	return experiments.Figure13a(ctx, max(s.scale, 150), s.parallel)
}

// Figure13a measures the paper's single-thread benchmark characterization
// (see fig13aRows for the scale cap).
func (s *Service) Figure13a(ctx context.Context) ([]Fig13Row, error) {
	rows, err := s.fig13aRows(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]Fig13Row, len(rows))
	for i, r := range rows {
		out[i] = Fig13Row{
			Name:      r.Name,
			Class:     string(rune(r.Class)),
			PaperIPCr: r.PaperIPCr,
			PaperIPCp: r.PaperIPCp,
			IPCr:      r.IPCr,
			IPCp:      r.IPCp,
		}
	}
	return out, nil
}

// Figure14 computes the paper's Figure 14 series (CCSI over CSMT). Like
// every figure entry point, it enforces the service's technique set, so a
// scoped service fails up front instead of silently simulating disabled
// techniques.
func (s *Service) Figure14(ctx context.Context) ([]FigureSeries, error) {
	if _, err := s.resolve(Plan{Figures: []string{"14"}}); err != nil {
		return nil, err
	}
	series, err := s.m.Figure14(ctx)
	if err != nil {
		return nil, err
	}
	return publicSeries(series), nil
}

// Figure15 computes the paper's Figure 15 series (COSI/OOSI over SMT),
// enforcing the service's technique set.
func (s *Service) Figure15(ctx context.Context) ([]FigureSeries, error) {
	if _, err := s.resolve(Plan{Figures: []string{"15"}}); err != nil {
		return nil, err
	}
	series, err := s.m.Figure15(ctx)
	if err != nil {
		return nil, err
	}
	return publicSeries(series), nil
}

// Figure16 computes the paper's Figure 16 points (absolute IPC of every
// technique), enforcing the service's technique set.
func (s *Service) Figure16(ctx context.Context) ([]IPCPoint, error) {
	if _, err := s.resolve(Plan{Figures: []string{"16"}}); err != nil {
		return nil, err
	}
	points, err := s.m.Figure16(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]IPCPoint, len(points))
	for i, p := range points {
		out[i] = IPCPoint{Technique: p.Tech.Name(), Threads: p.Threads, IPC: p.IPC}
	}
	return out, nil
}

func publicSeries(series []experiments.SpeedupSeries) []FigureSeries {
	out := make([]FigureSeries, len(series))
	for i, ss := range series {
		out[i] = FigureSeries{
			Label:     ss.Label,
			Technique: ss.Tech.Name(),
			Baseline:  ss.Baseline.Name(),
			Threads:   ss.Threads,
			Workloads: append([]string(nil), ss.Workloads...),
			Pct:       append([]float64(nil), ss.Pct...),
			Avg:       ss.Avg,
		}
	}
	return out
}

// ThreadScaling measures one mix under one technique across thread counts,
// all points sharing the service seed so the curve isolates the
// thread-count effect.
func (s *Service) ThreadScaling(ctx context.Context, mixLabel, technique string, threadCounts []int) ([]ScalePoint, error) {
	mix, err := workload.MixByLabel(mixLabel)
	if err != nil {
		return nil, fmt.Errorf("vexsmt: %w", err)
	}
	tech, err := core.ParseTechnique(technique)
	if err != nil {
		return nil, fmt.Errorf("vexsmt: %w", err)
	}
	if !s.allowed(tech) {
		return nil, fmt.Errorf("vexsmt: technique %s not enabled on this service (WithTechniques)", tech.Name())
	}
	points, err := experiments.ThreadScaling(ctx, mix, tech, threadCounts, s.scale, s.seed, s.parallel)
	if err != nil {
		return nil, err
	}
	out := make([]ScalePoint, len(points))
	for i, p := range points {
		out[i] = ScalePoint{Threads: p.Threads, IPC: p.IPC}
	}
	return out, nil
}
