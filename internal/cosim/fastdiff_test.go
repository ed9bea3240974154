package cosim

import (
	"fmt"
	"testing"

	"vexsmt/internal/core"
	"vexsmt/internal/isa"
	"vexsmt/internal/rng"
	"vexsmt/internal/sim"
	"vexsmt/internal/synth"
	"vexsmt/internal/workload"
)

// These tests are the differential half of the package's correctness
// charter: the timing simulator's event-driven fast path (stall
// fast-forwarding, precompiled issue tables, batched trace prefetch) must
// be bit-identical to the one-iteration-per-cycle reference loop. Each
// test runs the same configuration twice — Config.ReferenceLoop false and
// true — and requires the full stats.Run counter structs to be equal, not
// just the headline IPC.

// runPair executes one configuration under the fast and the reference
// loop and fails the test on any counter difference.
func runPair(t *testing.T, label string, cfg sim.Config, profs []synth.Profile) {
	t.Helper()
	fastSim, err := sim.NewWorkload(cfg, profs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fast, fastErr := fastSim.Run()

	ref := cfg
	ref.ReferenceLoop = true
	refSim, err := sim.NewWorkload(ref, profs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, wantErr := refSim.Run()

	if (fastErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error mismatch: fast=%v ref=%v", label, fastErr, wantErr)
	}
	if *fast != *want {
		t.Fatalf("%s: fast loop diverged from reference loop:\nfast %+v\nref  %+v",
			label, fast, want)
	}
}

// TestFastLoopMatchesReferenceGrid sweeps the paper's whole technique
// space — all eight techniques (NS and AS variants included), 1/2/4
// hardware threads — plus perfect-memory and no-timeslice variants, comparing full counter structs between the fast
// and reference loops.
func TestFastLoopMatchesReferenceGrid(t *testing.T) {
	mix, err := workload.MixByLabel("llhh")
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mix.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	const scale = 20000
	for _, tech := range core.AllTechniques() {
		for _, threads := range []int{1, 2, 4} {
			cfg := sim.DefaultConfig(tech, threads).WithScale(scale)
			label := fmt.Sprintf("%s/%dT", tech.Name(), threads)
			runPair(t, label, cfg, profs[:min(len(profs), max(threads, 2))])
		}
	}
	// Perfect memory throttles every stall source except branches; the
	// no-timeslice single-job variant exercises fast-forward without the
	// timeslice bound.
	base := sim.DefaultConfig(core.CCSI(core.CommAlwaysSplit), 2).WithScale(scale)
	base.PerfectMemory = true
	runPair(t, "perfect-memory", base, profs[:2])

	solo := sim.DefaultConfig(core.OOSI(core.CommNoSplit), 1).WithScale(scale)
	solo.TimesliceCycles = 0
	runPair(t, "no-timeslice", solo, profs[:1])

	// Mixed runnability: fewer jobs than contexts, so most contexts stay
	// parked and the machine stalls whenever the few live ones do.
	for _, threads := range []int{4, 8} {
		for _, jobs := range []int{1, 2} {
			wide := sim.DefaultConfig(core.CCSI(core.CommAlwaysSplit), threads).WithScale(scale)
			runPair(t, fmt.Sprintf("mixed-%dT-%dj", threads, jobs), wide, profs[:jobs])
		}
	}
}

// TestWakeOnTimesliceBoundary sweeps timeslice lengths around the cache
// miss penalties so that stall expiries land before, exactly on, and after
// timeslice boundaries (which wake idle contexts through the switch mask).
// Every jump is capped at the boundary; an off-by-one in that cap
// would context-switch on a different cycle and diverge immediately.
func TestWakeOnTimesliceBoundary(t *testing.T) {
	mix, err := workload.MixByLabel("llhh")
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mix.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	base := sim.DefaultConfig(core.CCSI(core.CommAlwaysSplit), 2).WithScale(40000)
	pen := int64(base.DCache.MissPenalty)
	for _, slice := range []int64{pen - 1, pen, pen + 1, 2*pen + 1, 97, 256} {
		cfg := base
		cfg.TimesliceCycles = slice
		// Oversubscribe so boundary switches actually swap jobs in and out.
		runPair(t, fmt.Sprintf("slice-%d", slice), cfg, profs[:3])
	}
}

// TestRespawnAcrossFetchBatch gives every job a spawn length that is not a
// multiple of the prefetch batch, so respawn boundaries repeatedly fall
// mid-refill; the batched fast path must clamp each refill to the spawn
// and draw the replacement stream on exactly the same instruction as the
// one-at-a-time reference loop.
func TestRespawnAcrossFetchBatch(t *testing.T) {
	r := rng.New(0xba7c)
	geom := isa.ST200x4
	// ~100-instruction spawns against a 64-instruction fetch batch, across
	// a few profile shapes.
	for i := 0; i < 3; i++ {
		prof := randomProfile(r, 100+i, geom)
		prof.LengthMInstr = 10 + float64(i) // 100+10i instrs at scale 100000
		cfg := sim.DefaultConfig(core.CCSI(core.CommAlwaysSplit), 2).WithScale(100_000)
		cfg.Seed = r.Uint64()
		profs := []synth.Profile{prof, randomProfile(r, 200+i, geom)}
		fastSim, err := sim.NewWorkload(cfg, profs)
		if err != nil {
			t.Fatal(err)
		}
		run, err := fastSim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if run.Respawns == 0 {
			t.Fatalf("trial %d: no respawns; spawn lengths too long for the scenario", i)
		}
		runPair(t, fmt.Sprintf("respawn-%d", i), cfg, profs)
	}
}

// TestAllContextsWakeSameCycle runs identically-seeded copies of one
// profile on every context: the threads stall and wake in lockstep, so
// whole-machine sleeps end with every context waking on the same cycle and
// the earliest wake-up is an n-way tie. Ties must resolve to the same
// cycle the reference loop reaches by stepping.
func TestAllContextsWakeSameCycle(t *testing.T) {
	prof, ok := synth.ByName("mcf") // memory-bound: stalls constantly
	if !ok {
		t.Fatal("missing profile")
	}
	cfg := sim.DefaultConfig(core.SMT(), 4).WithScale(40000)
	// Four byte-identical streams: same profile, and NewWorkload derives
	// every job's generator seed from the same (profile seed, config seed)
	// pair, so all four contexts draw the same instructions.
	profs := []synth.Profile{prof, prof, prof, prof}
	runPair(t, "lockstep", cfg, profs)
}

// randomProfile draws a structurally valid synthetic-benchmark profile:
// the point is to explore stall patterns (cache-heavy, branch-heavy,
// comm-heavy) the calibrated catalog does not cover.
func randomProfile(r *rng.Rand, i int, geom isa.Geometry) synth.Profile {
	return synth.Profile{
		Name:         fmt.Sprintf("rand-%d", i),
		Seed:         r.Uint64(),
		MeanOps:      1 + r.Float64()*float64(geom.TotalIssueWidth()-1)*0.8,
		SpreadProb:   r.Float64(),
		MemFrac:      r.Float64() * 0.5,
		MulFrac:      r.Float64() * 0.3,
		StoreFrac:    r.Float64(),
		CommProb:     r.Float64() * 0.3,
		BranchProb:   r.Float64() * 0.4,
		TakenProb:    r.Float64(),
		LoopInstrs:   2 + r.Intn(40),
		LoopIters:    1 + r.Intn(50),
		CodeKB:       1 + r.Intn(256),
		DataKB:       1 + r.Intn(512),
		StreamKB:     1 + r.Intn(128),
		StreamFrac:   r.Float64(),
		LengthMInstr: 10 + r.Float64()*90,
	}
}

// TestFastLoopPropertyRandomized is the randomized differential property:
// random profiles, geometries, techniques, thread counts (up to the full
// 8-context machine), job counts (under- and oversubscribed) and
// scheduling parameters, with full stats.Run equality between the fast
// and reference cores on every draw. Undersubscribed draws leave contexts
// parked, so the machine stalls whenever its few live contexts do.
func TestFastLoopPropertyRandomized(t *testing.T) {
	r := rng.New(0xd1ff)
	geoms := []isa.Geometry{
		isa.ST200x4,
		{Clusters: 2, IssueWidth: 8, ALUs: 8, Muls: 4, MemUnits: 2},
		{Clusters: 8, IssueWidth: 2, ALUs: 2, Muls: 1, MemUnits: 1},
		{Clusters: 1, IssueWidth: 4, ALUs: 4, Muls: 2, MemUnits: 1},
	}
	techs := core.AllTechniques()
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		geom := geoms[r.Intn(len(geoms))]
		tech := techs[r.Intn(len(techs))]
		threads := 1 + r.Intn(8)
		cfg := sim.DefaultConfig(tech, threads).WithScale(20000 + int64(r.Intn(20000)))
		cfg.Geom = geom
		cfg.Seed = r.Uint64()
		cfg.ClusterRenaming = r.Bool(0.5)
		cfg.PerfectMemory = r.Bool(0.2)
		if r.Bool(0.3) {
			// Shrink the timeslice so context switches (and their interaction
			// with fast-forwarded stalls) happen often.
			cfg.TimesliceCycles = int64(500 + r.Intn(5000))
		}
		nprofs := threads
		switch {
		case r.Bool(0.4):
			nprofs = threads + 1 + r.Intn(2) // oversubscribe: waiting jobs rotate in
		case r.Bool(0.5):
			nprofs = 1 + r.Intn(threads) // undersubscribe: idle contexts, dead slots
		}
		profs := make([]synth.Profile, nprofs)
		for i := range profs {
			profs[i] = randomProfile(r, trial*10+i, geom)
		}
		label := fmt.Sprintf("trial %d (%s, %dC, %dT, %d jobs, slice %d, perfect %v)",
			trial, tech.Name(), geom.Clusters, threads, nprofs, cfg.TimesliceCycles, cfg.PerfectMemory)
		runPair(t, label, cfg, profs)
	}
}
