package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/sched"
)

// Progress is a live snapshot of a coordinated run, emitted once per
// delivered cell. CacheHits/CacheMisses count delivered cells by whether
// a backend recalled them from its content-addressed result cache; on a
// fully warm cache CacheHits ends equal to CellsTotal and no simulator
// ran anywhere.
type Progress struct {
	CellsDone   int // cells with a final outcome
	CellsTotal  int // unique cells in the resolved plan
	Retries     int // cell attempts beyond the first, across the run
	Stolen      int // cells executed by a backend other than their initial assignment
	CacheHits   int // delivered cells recalled from a result cache
	CacheMisses int // delivered cells that were simulated
}

// Config parameterizes a Coordinator. The zero value of every field has a
// sensible default except Seed, which is taken literally (seed 0 is a
// valid experiment).
type Config struct {
	// Scale is the scale divisor every backend runs at; 0 means 100, the
	// Service default.
	Scale int64
	// Seed is the base seed every backend runs under, used as-is.
	Seed uint64
	// Retries is the number of extra attempts a cell gets after a backend
	// failure, each on a backend that has not yet failed it. 0 means 2;
	// negative disables retry.
	Retries int
	// CacheOff asks every backend to bypass its result cache for this
	// run's cells (forwarded as cache=off on remote submissions).
	CacheOff bool
	// Backoff is the base of the run's failure waits: a backend waits
	// Backoff·2^(n−1), capped at 8·Backoff, after its n-th consecutive
	// failed cell, and a placement round in which no backend is healthy
	// re-probes the failed ones Backoff apart. Zero means 250ms.
	Backoff time.Duration
	// LocalFallback degrades Collect to in-process execution when no
	// backend is healthy (source empty, every probe failed, or a foreign
	// schema everywhere) instead of failing the run. The fallback runs
	// the same plan at the same seed and scale through the same resolve
	// path, so its output is byte-identical to what the fleet would have
	// produced — slower, never different.
	LocalFallback bool
	// OnProgress, when non-nil, observes run progress. Calls are
	// serialized.
	OnProgress func(Progress)
	// Logf, when non-nil, receives placement, steal, retry and failure
	// events.
	Logf func(format string, args ...any)
}

// Source yields the backends a run should consider. A static deployment
// is a fixed list; a fleet deployment is a registry lookup, so the
// member set is re-resolved at every Collect and daemons that joined or
// left between sweeps are picked up without rebuilding the Coordinator.
// Backends resolves against ctx and may be called concurrently.
type Source interface {
	Backends(ctx context.Context) ([]Backend, error)
}

// staticSource is the fixed-list Source behind New.
type staticSource []Backend

func (s staticSource) Backends(context.Context) ([]Backend, error) { return s, nil }

// Coordinator schedules a plan's cells over backends and assembles the
// results. It holds no per-run state: one Coordinator may serve any
// number of concurrent Collects. Scheduling is cell-level (see
// pkg/vexsmt/sched): there is no shard partitioning step, so a slow or
// dead backend sheds individual queued cells to idle backends instead of
// stalling a whole pre-assigned shard.
type Coordinator struct {
	cfg    Config
	source Source
}

// New builds a Coordinator over a fixed set of one or more backends.
func New(cfg Config, backends ...Backend) (*Coordinator, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one backend")
	}
	return NewFromSource(cfg, staticSource(backends))
}

// NewFromSource builds a Coordinator whose backend set is re-resolved
// from src at the start of every Collect. Membership is fixed for the
// duration of one run (a mid-sweep death is handled by retry/steal, a
// mid-sweep join is picked up by the next run).
func NewFromSource(cfg Config, src Source) (*Coordinator, error) {
	if src == nil {
		return nil, fmt.Errorf("shard: coordinator needs a backend source")
	}
	if cfg.Scale == 0 {
		cfg.Scale = 100
	}
	if cfg.Scale < 1 {
		return nil, fmt.Errorf("shard: scale divisor %d < 1", cfg.Scale)
	}
	switch {
	case cfg.Retries == 0:
		cfg.Retries = 2
	case cfg.Retries < 0:
		cfg.Retries = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 250 * time.Millisecond
	}
	return &Coordinator{cfg: cfg, source: src}, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// cellBackend adapts a shard.Backend to the cell scheduler: every item is
// one grid cell, submitted as a one-cell job.
type cellBackend struct {
	b     Backend
	slots int
	job   Job // template: Cells is filled per item
}

func (cb *cellBackend) Name() string { return cb.b.Name() }
func (cb *cellBackend) Slots() int   { return cb.slots }

func (cb *cellBackend) Run(ctx context.Context, spec vexsmt.CellSpec) (vexsmt.CellResult, error) {
	job := cb.job
	job.Cells = []vexsmt.CellSpec{spec}
	rs, err := cb.b.Run(ctx, job)
	if err != nil {
		return vexsmt.CellResult{}, err // Permanent markers pass through untouched
	}
	// Count and identity are both protocol checks (this is what the old
	// merge's duplicate-conflict detection guarded): a backend answering a
	// one-cell job with the wrong cell must not slip into the result set
	// as a silent duplicate-plus-gap. Protocol violations are the
	// backend's fault, so they stay retryable elsewhere.
	if len(rs.Cells) != 1 {
		return vexsmt.CellResult{}, fmt.Errorf("shard: %s returned %d cells for a one-cell job",
			cb.b.Name(), len(rs.Cells))
	}
	got := rs.Cells[0]
	if got.CellSpec != spec {
		return vexsmt.CellResult{}, fmt.Errorf("shard: %s returned cell %s for job %s",
			cb.b.Name(), got.CellSpec, spec)
	}
	return got, nil
}

// Collect resolves plan at the coordinator's seed and scale and schedules
// its cells over the healthy backends — bounded per-backend concurrency
// from /healthz capacity, work stealing for stragglers, per-cell retry
// and failover — returning the canonical ResultSet: byte-identical (after
// canonical encoding) to a single-process Service.Collect of the same
// plan, seed and scale. Cancelling ctx aborts every in-flight cell;
// remote cells are cancelled by closing their results streams.
func (c *Coordinator) Collect(ctx context.Context, plan vexsmt.Plan) (*vexsmt.ResultSet, error) {
	// Resolve through a scratch service: same vocabulary, same validation,
	// same dedup and ordering a single-process run would use.
	scratch, err := vexsmt.New(vexsmt.WithScale(c.cfg.Scale), vexsmt.WithSeed(c.cfg.Seed))
	if err != nil {
		return nil, err
	}
	cells, err := scratch.PlanCells(plan)
	if err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		rs := &vexsmt.ResultSet{Meta: scratch.Meta()}
		rs.Canonicalize()
		return rs, nil
	}

	backends, err := c.healthyBackends(ctx)
	if err != nil {
		if c.cfg.LocalFallback {
			// Graceful degradation: an unhealthy fleet costs speed, not the
			// run. The scratch service already carries the run's seed and
			// scale, so the local execution is byte-identical to the
			// distributed one.
			c.logf("placement: %v; falling back to local execution", err)
			rs, ferr := scratch.Collect(ctx, plan)
			if ferr != nil {
				return nil, ferr
			}
			rs.Canonicalize()
			return rs, nil
		}
		return nil, err
	}
	for i := range backends {
		backends[i].job = Job{Scale: c.cfg.Scale, Seed: c.cfg.Seed, CacheOff: c.cfg.CacheOff}
	}
	sbs := make([]sched.Backend[vexsmt.CellSpec, vexsmt.CellResult], len(backends))
	for i := range backends {
		sbs[i] = backends[i]
	}

	// A cell failure aborts the run (Collect returns all or nothing), so
	// the remaining cells are cancelled as soon as one delivers an error.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch, err := sched.Run(runCtx, cells, sbs, sched.Options{
		Retries: c.cfg.Retries,
		Logf:    c.cfg.Logf,
		Backoff: c.cfg.Backoff,
	})
	if err != nil {
		return nil, err
	}

	rs := &vexsmt.ResultSet{Meta: scratch.Meta()}
	var p Progress
	p.CellsTotal = len(cells)
	var firstErr error
	for r := range ch {
		if r.Err != nil {
			if firstErr == nil {
				firstErr = r.Err
			}
			cancel() // first failure aborts the rest; keep draining
			continue
		}
		rs.Cells = append(rs.Cells, r.Value)
		p.CellsDone++
		p.Retries += r.Attempts - 1
		if r.Stolen {
			p.Stolen++
		}
		if r.Value.Cached {
			p.CacheHits++
		} else {
			p.CacheMisses++
		}
		if c.cfg.OnProgress != nil {
			c.cfg.OnProgress(p)
		}
	}

	// Report the caller's own cancellation over anything it caused.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if len(rs.Cells) != len(cells) {
		return nil, fmt.Errorf("shard: collected %d cells but the plan has %d — a backend dropped results",
			len(rs.Cells), len(cells))
	}
	rs.Canonicalize()
	return rs, nil
}

// placementProbes is how many probe rounds placement makes before it
// calls a backend set unhealthy: a round in which every probe fails is
// followed by up to two more over the failed backends, Config.Backoff
// apart, so one unlucky round cannot send a whole sweep local.
const placementProbes = 3

// probeTimeout bounds one backend's health probe: a backend that cannot
// answer in 2s is left out of the round rather than allowed to stall it.
const probeTimeout = 2 * time.Second

// healthyBackends resolves the source's current membership, probes every
// backend, and returns a scheduler-ready adapter per healthy one, each
// sized to the backend's free capacity (at least one slot). Backends
// whose probes fail or that speak a foreign schema version are left out
// of the run entirely — they receive no cells.
func (c *Coordinator) healthyBackends(ctx context.Context) ([]*cellBackend, error) {
	backends, err := c.source.Backends(ctx)
	if err != nil {
		return nil, fmt.Errorf("shard: resolving backends: %w", err)
	}
	if len(backends) == 0 {
		return nil, fmt.Errorf("shard: backend source yielded no backends")
	}
	failed := backends
	for round := 1; ; round++ {
		probes := probeAll(ctx, failed)
		var out []*cellBackend
		var again []Backend
		for i, r := range probes {
			b := failed[i]
			if r.err != nil {
				c.logf("placement: %s unhealthy: %v", b.Name(), r.err)
				again = append(again, b)
				continue
			}
			if r.h.SchemaVersion != 0 && r.h.SchemaVersion != vexsmt.SchemaVersion {
				c.logf("placement: %s speaks schema v%d, want v%d",
					b.Name(), r.h.SchemaVersion, vexsmt.SchemaVersion)
				continue
			}
			slots := r.h.Capacity - r.h.Running
			if slots < 1 {
				slots = 1 // saturated or unknown: still queue one cell at a time
			}
			c.logf("placement: %s healthy, %d slot(s)", b.Name(), slots)
			out = append(out, &cellBackend{b: b, slots: slots})
		}
		if len(out) > 0 {
			return out, nil
		}
		if len(again) == 0 || round == placementProbes {
			return nil, fmt.Errorf("shard: no healthy backend among %d", len(backends))
		}
		select {
		case <-time.After(c.cfg.Backoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		failed = again
	}
}

// probeResult is one backend's health probe outcome.
type probeResult struct {
	h   Health
	err error
}

// probeAll health-checks every backend concurrently, each bounded by
// probeTimeout, so one unreachable backend costs a single probe
// round-trip, not a serialized one per backend.
func probeAll(ctx context.Context, backends []Backend) []probeResult {
	out := make([]probeResult, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b Backend) {
			defer wg.Done()
			hctx, cancel := context.WithTimeout(ctx, probeTimeout)
			out[i].h, out[i].err = b.Health(hctx)
			cancel()
		}(i, b)
	}
	wg.Wait()
	return out
}
