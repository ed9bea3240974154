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

// withWorkloadStore injects a private trace store (tests only; production
// services share the process-global store so corpora decode once).
func withWorkloadStore(st *wstore.Store) Option {
	return func(s *Service) error {
		s.wl = st
		return nil
	}
}

// Predictors returns the names of every branch-predictor model, in
// canonical presentation order. Every Service accepts all of them.
func Predictors() []string { return bpred.Names() }

// Techniques returns the names of every technique the paper evaluates, in
// the presentation order of Figure 16. Every Service runs all of them:
// Sweep and Plan.Workloads expand over this list, and RunMeta.Techniques
// is its comma join.
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
	for _, m := range paperMixes {
		names = append(names, m.Label)
	}
	return names
}
