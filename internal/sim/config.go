// Package sim is the cycle-level timing simulator of the paper's base
// architecture (Section IV) under all multithreading techniques: per-thread
// fetch with a shared ICache, the core issue engine (merging + split-issue),
// DCache load stalls with VEX less-than-or-equal semantics, taken-branch
// penalties, delayed-store memory-port stalls, the multitasking scheduler
// with 5M-cycle timeslices and random replacement, and benchmark respawn.
package sim

import (
	"fmt"

	"vexsmt/internal/bpred"
	"vexsmt/internal/cache"
	"vexsmt/internal/core"
	"vexsmt/internal/isa"
)

// Config is a full machine + experiment configuration.
//
// The register file is always partitioned: each thread has its own
// register file per cluster, each with W write ports. Section V-C rules
// out the shared organization for split-issue, because the last parts of
// several threads may commit their delay buffers in the same cycle and
// shared ports limit the number of simultaneous writes. The timing model
// charges no register-file port conflicts, so there is nothing to select.
type Config struct {
	Geom            isa.Geometry
	Threads         int            // hardware thread contexts
	Tech            core.Technique // merging/split-issue technique
	ClusterRenaming bool

	ICache        cache.Config
	DCache        cache.Config
	PerfectMemory bool // no cache misses anywhere (IPCp runs)

	TakenBranchPenalty int

	// Predictor names the branch-predictor model (internal/bpred). "" and
	// "static" both select the paper's fixed front end and keep the legacy
	// taken-branch-penalty path byte-for-byte: penalties, counters, and
	// exports are untouched. Any other model charges TakenBranchPenalty on
	// mispredicts (either direction) instead of on every taken branch.
	Predictor string

	// Scheduling (Section VI-A): timeslice length in cycles; 0 disables
	// multitasking (all jobs must fit the hardware contexts).
	TimesliceCycles int64

	// Termination: run until one job has executed LimitInstrs VLIW
	// instructions. ScaleDiv divides the paper-scale benchmark lengths and
	// the paper-scale limit (200M) and timeslice (5M); ScaleDiv 1 is paper
	// scale.
	LimitInstrs int64
	ScaleDiv    int64

	// WarmupInstrs runs this many VLIW instructions before statistics
	// collection begins (caches stay warm, counters reset). Scaled-down
	// runs need this to avoid cold-start bias that the paper's 200M-
	// instruction runs do not suffer.
	WarmupInstrs int64

	// MaxCycles is a runaway guard; 0 picks a generous default.
	MaxCycles int64

	// ReferenceLoop disables the event-driven fast path (stall
	// fast-forwarding and batched trace prefetch) and runs the original
	// one-iteration-per-cycle loop with per-instruction fetch. Completed
	// runs are bit-identical either way; the flag exists so the
	// differential tests in internal/cosim can machine-check that claim.
	// It is not part of the experiment identity and must never influence
	// result cache keys.
	ReferenceLoop bool

	Seed uint64
}

// paper-scale constants (Section VI-A).
const (
	PaperLimitInstrs     = 200_000_000
	PaperTimesliceCycles = 5_000_000
)

// DefaultConfig returns the paper's base machine at 1/100 scale: 16-issue
// 4-cluster ST200-like geometry, 64KB 4-way caches with 20-cycle miss
// penalty, partitioned register file, cluster renaming on, round-robin
// priorities, 2M-instruction limit and 50K-cycle timeslices.
func DefaultConfig(tech core.Technique, threads int) Config {
	const scale = 100
	return Config{
		Geom:               isa.ST200x4,
		Threads:            threads,
		Tech:               tech,
		ClusterRenaming:    true,
		ICache:             cache.Paper64KB4Way,
		DCache:             cache.Paper64KB4Way,
		TakenBranchPenalty: 1,
		TimesliceCycles:    PaperTimesliceCycles / scale,
		LimitInstrs:        PaperLimitInstrs / scale,
		WarmupInstrs:       PaperLimitInstrs / scale / 10,
		ScaleDiv:           scale,
		Seed:               1,
	}
}

// WithScale rescales the limit and timeslice to a new divisor of paper
// scale.
func (c Config) WithScale(div int64) Config {
	if div < 1 {
		div = 1
	}
	c.ScaleDiv = div
	c.LimitInstrs = PaperLimitInstrs / div
	c.TimesliceCycles = PaperTimesliceCycles / div
	c.WarmupInstrs = c.LimitInstrs / 10
	return c
}

// Validate checks configuration consistency.
func (c Config) Validate() error {
	if err := c.Geom.Validate(); err != nil {
		return err
	}
	if err := c.Tech.Validate(); err != nil {
		return err
	}
	if c.Threads <= 0 || c.Threads > core.MaxThreads {
		return fmt.Errorf("sim: thread count %d out of range", c.Threads)
	}
	if !c.PerfectMemory {
		if err := c.ICache.Validate(); err != nil {
			return fmt.Errorf("sim: icache: %w", err)
		}
		if err := c.DCache.Validate(); err != nil {
			return fmt.Errorf("sim: dcache: %w", err)
		}
	}
	if c.LimitInstrs <= 0 {
		return fmt.Errorf("sim: LimitInstrs must be positive")
	}
	if c.TakenBranchPenalty < 0 {
		return fmt.Errorf("sim: negative branch penalty")
	}
	if _, err := bpred.Canonical(c.Predictor); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}
