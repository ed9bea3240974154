package core

import (
	"testing"

	"vexsmt/internal/isa"
	"vexsmt/internal/rng"
)

// TestLoadFromRenamesByIndex holds the engine's one load path to the
// renaming it replaced, where the caller rotated a copy of the demand
// before loading it: for every rotation, LoadFrom(t, d, live, by) must
// leave the same Remaining at every cluster, including those past the
// geometry, as Load(t, d.Rotate(by, n)). Both engines then run to
// completion on the same random ready masks, and every cycle's result
// and Remaining must match too.
func TestLoadFromRenamesByIndex(t *testing.T) {
	geoms := []isa.Geometry{
		isa.ST200x4,
		{Clusters: 3, IssueWidth: 2, ALUs: 2, Muls: 1, MemUnits: 1},
		{Clusters: 8, IssueWidth: 4, ALUs: 4, Muls: 2, MemUnits: 1},
	}
	const threads = 2
	r := rng.New(0x4e4a)
	for _, g := range geoms {
		n := g.Clusters
		for _, tech := range AllTechniques() {
			for by := 0; by < n; by++ {
				byIndex, err := NewEngine(g, tech, threads)
				if err != nil {
					t.Fatal(err)
				}
				rotated, _ := NewEngine(g, tech, threads)
				streams := [threads][]isa.InstrDemand{
					randomStream(r, g, 40, 0.3),
					randomStream(r, g, 40, 0.3),
				}
				var next [threads]int
				var got, want CycleResult
				for cycle := 0; cycle < 2000; cycle++ {
					for th := 0; th < threads; th++ {
						if byIndex.Active(th) || next[th] == len(streams[th]) {
							continue
						}
						d := &streams[th][next[th]]
						next[th]++
						byIndex.LoadFrom(th, d, d.Summary(), by)
						rotated.Load(th, d.Rotate(by, n))
					}
					for th := 0; th < threads; th++ {
						for c := 0; c < isa.MaxClusters; c++ {
							if a, b := byIndex.Remaining(th, c), rotated.Remaining(th, c); a != b {
								t.Fatalf("%v %s by=%d cycle %d: Remaining(%d, %d) = %+v, rotated copy gives %+v",
									g, tech.Name(), by, cycle, th, c, a, b)
							}
						}
					}
					if byIndex.ActiveMask() == 0 {
						break
					}
					ready := uint8(r.Intn(1 << threads))
					byIndex.CycleMask(ready, &got)
					rotated.CycleMask(ready, &want)
					if !sameCycle(&got, &want, threads, n) {
						t.Fatalf("%v %s by=%d cycle %d: result %+v, rotated copy gives %+v",
							g, tech.Name(), by, cycle, got, want)
					}
				}
				if byIndex.ActiveMask() != 0 || next != [threads]int{40, 40} {
					t.Fatalf("%v %s by=%d: streams did not drain", g, tech.Name(), by)
				}
			}
		}
	}
}

// sameCycle compares the parts of two cycle results CycleMask defines:
// the issuing threads' entries and the first n clusters.
func sameCycle(a, b *CycleResult, threads, n int) bool {
	if a.Issued != b.Issued || a.Ops != b.Ops || a.Threads != b.Threads {
		return false
	}
	for th := 0; th < threads; th++ {
		if a.Issued&(1<<uint(th)) != 0 && a.Thread[th] != b.Thread[th] {
			return false
		}
	}
	for c := 0; c < n; c++ {
		if a.MemOps[c] != b.MemOps[c] || a.Commits[c] != b.Commits[c] {
			return false
		}
	}
	return true
}
