package sim

import (
	"fmt"

	"vexsmt/internal/bpred"
	"vexsmt/internal/cache"
	"vexsmt/internal/core"
	"vexsmt/internal/stats"
	"vexsmt/internal/synth"
)

// fetchBatch is how many instructions a job prefetches from its stream per
// refill; the sizing rationale lives with the generator (synth.BatchSize).
const fetchBatch = synth.BatchSize

// Job is one software thread of the workload: a benchmark instance that
// respawns when it runs to completion (Section VI-A).
type Job struct {
	Stream    synth.Stream
	Executed  int64 // cumulative VLIW instructions (drives termination)
	remaining int64 // instructions left in the current spawn
	variant   uint64

	// Prefetch buffer: raw (un-renamed) instructions drawn from Stream in
	// fetchBatch runs. The buffer travels with the job across context
	// switches; renaming is applied per-context when the engine loads.
	buf       []synth.TInst
	bufPos    int
	drawsLeft int64 // instructions left to draw from Stream this spawn
}

// NewJob wraps a stream; scaleDiv scales the benchmark length.
func NewJob(s synth.Stream, scaleDiv int64) *Job {
	n := s.Length(scaleDiv)
	return &Job{Stream: s, remaining: n, drawsLeft: n}
}

// ctx is one hardware thread context's boxed state: the job it runs and
// its in-flight instruction. The context's scheduling state — wake-up
// cycle and pipeline condition flags — lives in flat struct-of-arrays on
// the Simulator (ready, and the have/loaded/wantSw/wasSplit bitmasks), so
// the per-cycle paths evaluate whole-machine conditions with bitwise
// operations instead of walking per-context structs with bool fields.
//
// ti points at the current instruction, un-renamed, in the job's prefetch
// buffer (or in raw under the reference loop). The slot stays valid until
// the instruction retires: a job refills its buffer only when it fetches
// past the end, and it fetches again only after the current instruction
// retires. The engine applies the rotation when it loads the instruction;
// the DCache paths map renamed clusters back to ti's address slots.
type ctx struct {
	job      *Job
	ti       *synth.TInst
	raw      synth.TInst // reference-loop fetch slot
	rotation int         // cluster renaming, in [0, Clusters)
}

// Simulator runs one configuration over one workload. A Simulator owns all
// of its mutable state — engine, caches, contexts, scratch buffers — so
// independent simulators can run on concurrent goroutines without
// synchronization. The run loop itself lives in run.go, split into
// fetch/issue/commit phases.
type Simulator struct {
	cfg  Config
	eng  *core.Engine
	ic   *cache.Cache
	dc   *cache.Cache
	jobs []*Job
	ctxs []ctx
	run  stats.Run

	// preds holds one predictor per hardware context, or nil when the
	// configuration models the paper's fixed front end ("static"). A nil
	// slice keeps retire() on the exact legacy taken-branch path, which is
	// what makes the default bit-identical to the pre-predictor simulator.
	preds []bpred.Predictor

	// Per-context scheduling state, struct-of-arrays (bit t of a mask is
	// hardware context t; see the ctx type comment).
	ready    [core.MaxThreads]int64 // cycle at which the context may fetch/issue again
	have     uint8                  // contexts holding a fetched instruction
	loaded   uint8                  // contexts whose instruction is loaded into the engine
	wantSw   uint8                  // contexts marked for replacement at the next boundary
	wasSplit uint8                  // contexts whose current instruction has split-issued
	allCtx   uint8                  // (1 << Threads) - 1

	st      runState // per-run bookkeeping and per-cycle scratch
	waiting []*Job   // reusable context-switch candidate buffer

	switchCount uint64
}

// New builds a simulator over the given jobs. Jobs beyond the hardware
// context count wait and enter at context switches.
func New(cfg Config, jobs []*Job) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("sim: no jobs")
	}
	if cfg.TimesliceCycles <= 0 && len(jobs) > cfg.Threads {
		return nil, fmt.Errorf("sim: %d jobs exceed %d contexts and multitasking is disabled",
			len(jobs), cfg.Threads)
	}
	eng, err := core.NewEngine(cfg.Geom, cfg.Tech, cfg.Threads)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:     cfg,
		eng:     eng,
		jobs:    jobs,
		waiting: make([]*Job, 0, len(jobs)),
	}
	if !cfg.PerfectMemory {
		if s.ic, err = cache.New(cfg.ICache); err != nil {
			return nil, err
		}
		if s.dc, err = cache.New(cfg.DCache); err != nil {
			return nil, err
		}
	}
	for _, j := range jobs {
		if j.buf == nil {
			j.buf = make([]synth.TInst, 0, fetchBatch)
		}
	}
	if name, _ := bpred.Canonical(cfg.Predictor); name != bpred.Default {
		s.preds = make([]bpred.Predictor, cfg.Threads)
		for t := range s.preds {
			if s.preds[t], err = bpred.New(name); err != nil {
				return nil, err
			}
		}
	}
	s.ctxs = make([]ctx, cfg.Threads)
	s.allCtx = uint8(1)<<uint(cfg.Threads) - 1
	for t := range s.ctxs {
		if t < len(jobs) {
			s.ctxs[t].job = jobs[t]
		}
		if cfg.ClusterRenaming {
			s.ctxs[t].rotation = core.RenameRotation(t, cfg.Geom.Clusters, cfg.Threads)
		}
	}
	return s, nil
}

// NewWorkload builds jobs from benchmark profiles and a simulator over
// them; each job's generator is independently seeded.
func NewWorkload(cfg Config, profiles []synth.Profile) (*Simulator, error) {
	jobs := make([]*Job, len(profiles))
	for i, p := range profiles {
		p.Seed ^= cfg.Seed * 0x9E3779B97F4A7C15
		gen, err := synth.NewGenerator(p, cfg.Geom)
		if err != nil {
			return nil, err
		}
		jobs[i] = NewJob(gen, cfg.ScaleDiv)
	}
	return New(cfg, jobs)
}
