package core

import (
	"testing"

	"vexsmt/internal/isa"
	"vexsmt/internal/rng"
)

// TestCycleZeroAllocs pins the zero-allocation contract of the issue hot
// path: once an engine exists, loading instructions and running cycles
// must never touch the heap, for every technique.
func TestCycleZeroAllocs(t *testing.T) {
	r := rng.New(0xa110c)
	for _, tech := range AllTechniques() {
		eng, err := NewEngine(isa.ST200x4, tech, 4)
		if err != nil {
			t.Fatal(err)
		}
		streams := make([][]isa.InstrDemand, 4)
		for th := range streams {
			streams[th] = randomStream(r, isa.ST200x4, 64, 0.2)
		}
		var next [4]int
		var ready [MaxThreads]bool
		for th := 0; th < 4; th++ {
			ready[th] = true
		}
		var res CycleResult
		allocs := testing.AllocsPerRun(500, func() {
			for th := 0; th < 4; th++ {
				if !eng.Active(th) {
					d := &streams[th][next[th]%len(streams[th])]
					next[th]++
					eng.LoadFrom(th, d, d.Summary(), th)
				}
			}
			eng.CycleInto(&ready, &res)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per cycle, want 0", tech.Name(), allocs)
		}
	}
}

// TestCycleMaskZeroAllocs pins the same contract on the mask-based hot
// path the run loop calls directly (CycleInto is a wrapper over it), for
// every technique.
func TestCycleMaskZeroAllocs(t *testing.T) {
	r := rng.New(0xa110d)
	for _, tech := range AllTechniques() {
		eng, err := NewEngine(isa.ST200x4, tech, 4)
		if err != nil {
			t.Fatal(err)
		}
		streams := make([][]isa.InstrDemand, 4)
		for th := range streams {
			streams[th] = randomStream(r, isa.ST200x4, 64, 0.2)
		}
		var next [4]int
		var res CycleResult
		allocs := testing.AllocsPerRun(500, func() {
			for th := 0; th < 4; th++ {
				if !eng.Active(th) {
					d := &streams[th][next[th]%len(streams[th])]
					next[th]++
					eng.LoadFrom(th, d, d.Summary(), th)
				}
			}
			eng.CycleMask(0b1111, &res)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per cycle, want 0", tech.Name(), allocs)
		}
	}
}

// TestSkipCyclesZeroAllocs covers the fast-forward entry point.
func TestSkipCyclesZeroAllocs(t *testing.T) {
	eng, err := NewEngine(isa.ST200x4, CCSI(CommAlwaysSplit), 4)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(500, func() { eng.SkipCycles(12345) }); allocs != 0 {
		t.Errorf("SkipCycles allocated %.1f per call, want 0", allocs)
	}
}
