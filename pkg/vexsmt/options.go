package vexsmt

import (
	"fmt"

	"vexsmt/internal/bpred"
	"vexsmt/internal/core"
	"vexsmt/internal/wstore"
)

// Option configures a Service at construction time. All knobs are fixed
// once New returns — there are no mutators, so a Service can be shared by
// any number of goroutines and mid-run reconfiguration races (a
// SetParallelism-style mutator) are impossible by construction.
type Option func(*Service) error

// WithScale sets the scale divisor of paper scale: 1 simulates the paper's
// full 200M-instruction runs, 100 (the default) runs 1/100 of that.
func WithScale(div int64) Option {
	return func(s *Service) error {
		if div < 1 {
			return fmt.Errorf("vexsmt: scale divisor %d < 1", div)
		}
		s.scale = div
		return nil
	}
}

// WithSeed sets the base seed every cell seed derives from. Two services
// with the same seed, scale and plan produce bit-identical results.
func WithSeed(seed uint64) Option {
	return func(s *Service) error {
		s.seed = seed
		return nil
	}
}

// WithParallelism bounds the simulation worker pool; n < 1 is rejected.
// The default is GOMAXPROCS. Parallelism never affects results, only
// wall-clock time.
func WithParallelism(n int) Option {
	return func(s *Service) error {
		if n < 1 {
			return fmt.Errorf("vexsmt: parallelism %d < 1", n)
		}
		s.parallel = n
		return nil
	}
}

// WithCache attaches a content-addressed result cache (see CellCache and
// pkg/vexsmt/cache): every cell consults it before simulating and
// populates it after, keyed by CacheKey. Caching never changes results —
// a hit returns exactly the bytes a simulation would produce — it only
// makes repeated sweeps of the same (seed, scale, cell) grid near-
// instant. A nil cache is ignored.
func WithCache(c CellCache) Option {
	return func(s *Service) error {
		s.cache = c
		return nil
	}
}

// WithTechniques restricts the service to the named techniques ("SMT",
// "CSMT", "CCSI NS", "CCSI AS", "COSI NS", "COSI AS", "OOSI NS",
// "OOSI AS"). Sweep plans expand over exactly this set, and resolving a
// plan that needs a technique outside it fails up front rather than
// silently simulating it. The default is all eight techniques of the
// paper's Figure 16.
func WithTechniques(names ...string) Option {
	return func(s *Service) error {
		if len(names) == 0 {
			return fmt.Errorf("vexsmt: WithTechniques requires at least one technique")
		}
		techs := make([]core.Technique, 0, len(names))
		seen := make(map[string]bool, len(names))
		for _, name := range names {
			t, err := core.ParseTechnique(name)
			if err != nil {
				return fmt.Errorf("vexsmt: %w", err)
			}
			if seen[t.Name()] {
				continue
			}
			seen[t.Name()] = true
			techs = append(techs, t)
		}
		s.techniques = techs
		return nil
	}
}

// WithPredictors restricts the service to the named branch-predictor
// models ("static", "bimodal", "gshare", "tage"). Plans naming a
// predictor outside the set fail at resolution rather than silently
// simulating it. The default is every model in internal/bpred.
func WithPredictors(names ...string) Option {
	return func(s *Service) error {
		if len(names) == 0 {
			return fmt.Errorf("vexsmt: WithPredictors requires at least one predictor")
		}
		preds := make([]string, 0, len(names))
		seen := make(map[string]bool, len(names))
		for _, name := range names {
			canon, err := bpred.Canonical(name)
			if err != nil {
				return fmt.Errorf("vexsmt: %w", err)
			}
			if seen[canon] {
				continue
			}
			seen[canon] = true
			preds = append(preds, canon)
		}
		s.predictors = preds
		return nil
	}
}

// WithWorkloadDir loads a trace corpus directory (.vxt binary traces and
// .vex assembly programs; see internal/wstore) and enables the workload
// axis: Plan.Workloads and CellSpec.Workload resolve against the loaded
// corpus. Files are content-hashed and decoded at most once per process
// no matter how many services name the same directory — concurrent cells
// replay one shared immutable arena. An empty dir is rejected at New.
func WithWorkloadDir(dir string) Option {
	return func(s *Service) error {
		if dir == "" {
			return fmt.Errorf("vexsmt: WithWorkloadDir requires a directory")
		}
		s.workloadDir = dir
		return nil
	}
}

// withWorkloadStore injects a private trace store (tests only; production
// services share the process-global store so corpora decode once).
func withWorkloadStore(st *wstore.Store) Option {
	return func(s *Service) error {
		s.wl = st
		return nil
	}
}

// Predictors returns the names of every branch-predictor model, in
// canonical presentation order — the default set of a Service.
func Predictors() []string { return bpred.Names() }

// Techniques returns the names of every technique the paper evaluates, in
// the presentation order of Figure 16 — the default set of a Service.
func Techniques() []string {
	all := core.AllTechniques()
	names := make([]string, len(all))
	for i, t := range all {
		names[i] = t.Name()
	}
	return names
}

// Mixes returns the labels of the paper's nine workload mixes
// (Figure 13(b)) in presentation order.
func Mixes() []string {
	names := make([]string, 0, 9)
	for _, m := range mixTable() {
		names = append(names, m.Label)
	}
	return names
}
