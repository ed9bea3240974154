package sim

import (
	"strings"
	"testing"

	"vexsmt/internal/cache"
	"vexsmt/internal/core"
	"vexsmt/internal/synth"
	"vexsmt/internal/workload"
)

const testScale = 2000 // 100K-instruction runs: fast but stable enough for coarse checks

func testConfig(tech core.Technique, threads int) Config {
	cfg := DefaultConfig(tech, threads).WithScale(testScale)
	return cfg
}

func mustMix(t *testing.T, label string) workload.Mix {
	t.Helper()
	m, err := workload.MixByLabel(label)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func runMix(t *testing.T, label string, tech core.Technique, threads int) *Simulator {
	t.Helper()
	cfg := testConfig(tech, threads)
	m := mustMix(t, label)
	profs, err := m.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWorkload(cfg, profs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(core.SMT(), 4)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.Threads = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero threads accepted")
	}
	bad = good
	bad.Tech = core.Technique{Merge: core.MergeCluster, Split: core.SplitOperation}
	if err := bad.Validate(); err == nil {
		t.Error("ruled-out technique accepted")
	}
	bad = good
	bad.LimitInstrs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero instruction limit accepted")
	}
}

func TestNewRejectsJobOverflowWithoutTimeslicing(t *testing.T) {
	cfg := testConfig(core.SMT(), 2)
	cfg.TimesliceCycles = 0
	prof, _ := synth.ByName("gsmencode")
	jobs := []*Job{
		NewJob(synth.MustNewGenerator(prof, cfg.Geom), cfg.ScaleDiv),
		NewJob(synth.MustNewGenerator(prof, cfg.Geom), cfg.ScaleDiv),
		NewJob(synth.MustNewGenerator(prof, cfg.Geom), cfg.ScaleDiv),
	}
	if _, err := New(cfg, jobs); err == nil {
		t.Fatal("3 jobs on 2 contexts without multitasking accepted")
	}
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("no jobs accepted")
	}
}

func TestRunDeterminism(t *testing.T) {
	a := runMix(t, "llmm", core.CCSI(core.CommAlwaysSplit), 2)
	b := runMix(t, "llmm", core.CCSI(core.CommAlwaysSplit), 2)
	ra, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if *ra != *rb {
		t.Fatalf("same config, different results:\n%+v\n%+v", ra, rb)
	}
}

func TestRunReachesInstructionLimit(t *testing.T) {
	s := runMix(t, "mmmm", core.SMT(), 4)
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Instrs < s.cfg.LimitInstrs {
		t.Fatalf("completed %d instrs, limit %d", r.Instrs, s.cfg.LimitInstrs)
	}
	if r.Cycles <= 0 || r.Ops <= 0 {
		t.Fatalf("degenerate run: %+v", r)
	}
	if r.IPC() <= 0 || r.IPC() > float64(s.cfg.Geom.TotalIssueWidth()) {
		t.Fatalf("impossible IPC %v", r.IPC())
	}
}

func TestMoreThreadsMoreThroughput(t *testing.T) {
	// 4 hardware contexts must outperform 2 which must outperform 1 on the
	// same multiprogrammed workload (the premise of the whole paper).
	var ipc [3]float64
	for i, threads := range []int{1, 2, 4} {
		s := runMix(t, "llhh", core.SMT(), threads)
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		ipc[i] = r.IPC()
	}
	if !(ipc[0] < ipc[1] && ipc[1] < ipc[2]) {
		t.Fatalf("IPC not increasing with threads: %v", ipc)
	}
}

func TestSMTBeatsCSMT(t *testing.T) {
	// Operation-level merging dominates cluster-level merging (Figure 16).
	smt, err := runMix(t, "hhhh", core.SMT(), 4).Run()
	if err != nil {
		t.Fatal(err)
	}
	csmt, err := runMix(t, "hhhh", core.CSMT(), 4).Run()
	if err != nil {
		t.Fatal(err)
	}
	if smt.IPC() <= csmt.IPC() {
		t.Fatalf("SMT %.3f <= CSMT %.3f", smt.IPC(), csmt.IPC())
	}
}

func TestSplitIssueImprovesThroughput(t *testing.T) {
	// The headline result: CCSI beats CSMT on 4 threads (Figure 14).
	base, err := runMix(t, "mmhh", core.CSMT(), 4).Run()
	if err != nil {
		t.Fatal(err)
	}
	ccsi, err := runMix(t, "mmhh", core.CCSI(core.CommAlwaysSplit), 4).Run()
	if err != nil {
		t.Fatal(err)
	}
	if ccsi.IPC() <= base.IPC() {
		t.Fatalf("CCSI %.3f <= CSMT %.3f", ccsi.IPC(), base.IPC())
	}
	if ccsi.SplitInstrs == 0 {
		t.Fatal("CCSI run recorded no split instructions")
	}
	if base.SplitInstrs != 0 {
		t.Fatal("CSMT run recorded split instructions")
	}
}

func TestNoSplitInstrsWithoutSplitIssue(t *testing.T) {
	for _, tech := range []core.Technique{core.SMT(), core.CSMT()} {
		r, err := runMix(t, "llmh", tech, 4).Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.SplitInstrs != 0 {
			t.Fatalf("%s: %d split instrs", tech.Name(), r.SplitInstrs)
		}
		if r.MemPortStallCycles != 0 {
			t.Fatalf("%s: %d port stalls without delayed stores", tech.Name(), r.MemPortStallCycles)
		}
	}
}

func TestPerfectMemoryNoCacheStats(t *testing.T) {
	cfg := testConfig(core.SMT(), 2)
	cfg.PerfectMemory = true
	m := mustMix(t, "llll")
	profs, _ := m.Profiles()
	s, err := NewWorkload(cfg, profs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.ICacheAccesses != 0 || r.DCacheAccesses != 0 ||
		r.MemStallCycles != 0 || r.FetchStallCycles != 0 {
		t.Fatalf("perfect memory produced cache traffic: %+v", r)
	}
	// Perfect memory must beat real memory.
	real, err := runMix(t, "llll", core.SMT(), 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC() <= real.IPC() {
		t.Fatalf("perfect IPC %.3f <= real IPC %.3f", r.IPC(), real.IPC())
	}
}

func TestContextSwitchingHappens(t *testing.T) {
	// 2 contexts, 4 jobs: the scheduler must rotate jobs in.
	r, err := runMix(t, "llmh", core.SMT(), 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.ContextSwitches == 0 {
		t.Fatal("no context switches in a 4-job 2-context run")
	}
}

func TestRespawnHappens(t *testing.T) {
	// djpeg is 30M instrs at paper scale; at 1/2000 it is 15K, far below the
	// 100K limit, so it must respawn.
	cfg := testConfig(core.SMT(), 1)
	cfg.TimesliceCycles = 0
	prof, _ := synth.ByName("djpeg")
	s, err := NewWorkload(cfg, []synth.Profile{prof})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Respawns == 0 {
		t.Fatal("short benchmark did not respawn")
	}
}

func TestBranchAndMemStallsAccounted(t *testing.T) {
	r, err := runMix(t, "llll", core.SMT(), 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.BranchStallCycles == 0 {
		t.Error("no branch penalty cycles on branchy workload")
	}
	if r.MemStallCycles == 0 {
		t.Error("no memory stalls on cache-missing workload")
	}
	if r.DCacheMisses == 0 || r.ICacheAccesses == 0 {
		t.Error("cache counters empty")
	}
}

func TestSingleThreadTechniqueIrrelevant(t *testing.T) {
	// On one hardware context the technique must not matter.
	prof, _ := synth.ByName("cjpeg")
	var ipcs []float64
	for _, tech := range core.AllTechniques() {
		cfg := testConfig(tech, 1)
		cfg.TimesliceCycles = 0
		s, err := NewWorkload(cfg, []synth.Profile{prof})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		ipcs = append(ipcs, r.IPC())
	}
	for i := 1; i < len(ipcs); i++ {
		if ipcs[i] != ipcs[0] {
			t.Fatalf("technique changed single-thread IPC: %v", ipcs)
		}
	}
}

// TestNextEventCycle pins the next-event jump: a loaded, ready context
// means this cycle, a stalled one its exact expiry, a parked context (no
// job, nothing fetched, no pending switch) never pulls the jump earlier,
// and the jump stops at the timeslice boundary and the cancellation poll.
func TestNextEventCycle(t *testing.T) {
	s := runMix(t, "hhhh", core.SMT(), 4)
	s.beginRun()
	// Context 2 is the only live context; the others have no job.
	for i := range s.ctxs {
		if i != 2 {
			s.ctxs[i].job = nil
		}
	}
	s.have, s.loaded, s.wantSw = 1<<2, 1<<2, 0
	s.st.sliceEnd, s.st.ctxCheckAt = 1000, 2000
	s.ready = [core.MaxThreads]int64{0, 6, 3, 7}
	if got := s.nextEventCycle(5); got != 5 {
		t.Fatalf("loaded, ready context: next = %d, want the current cycle 5", got)
	}
	s.ready[2] = 8
	if got := s.nextEventCycle(5); got != 8 {
		t.Fatalf("stalled context (parked contexts ready at 0, 6, 7): next = %d, want its expiry 8", got)
	}
	s.wantSw = 1 << 1 // a pending switch wakes context 1 at its expiry
	if got := s.nextEventCycle(5); got != 6 {
		t.Fatalf("context with a pending switch: next = %d, want 6", got)
	}
	s.wantSw = 0
	s.ready[2] = 5000
	if got := s.nextEventCycle(5); got != 1000 {
		t.Fatalf("next = %d, want the timeslice boundary 1000", got)
	}
	s.st.ctxCheckAt = 900
	if got := s.nextEventCycle(5); got != 900 {
		t.Fatalf("next = %d, want the cancellation poll 900", got)
	}
	s.cfg.TimesliceCycles, s.st.ctxCheckAt = 0, 2000
	if got := s.nextEventCycle(5); got != 2000 {
		t.Fatalf("no timeslicing: next = %d, want the cancellation poll 2000", got)
	}
}

func TestClusterRenamingHelps(t *testing.T) {
	// The renaming ablation: without renaming all threads pile onto the
	// same clusters and CSMT merging collapses (the CSMT paper's result).
	on := runMix(t, "llmm", core.CSMT(), 4)
	roff := testConfig(core.CSMT(), 4)
	roff.ClusterRenaming = false
	m := mustMix(t, "llmm")
	profs, _ := m.Profiles()
	soff, err := NewWorkload(roff, profs)
	if err != nil {
		t.Fatal(err)
	}
	ron, err := on.Run()
	if err != nil {
		t.Fatal(err)
	}
	roffRun, err := soff.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ron.IPC() <= roffRun.IPC() {
		t.Fatalf("renaming on %.3f <= off %.3f", ron.IPC(), roffRun.IPC())
	}
}

func TestMeasuredIPCSanity(t *testing.T) {
	prof, _ := synth.ByName("gsmencode")
	ipcr, ipcp, err := MeasuredIPC(prof, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if ipcr <= 0 || ipcp < ipcr {
		t.Fatalf("IPCr %.3f IPCp %.3f", ipcr, ipcp)
	}
}

func TestWarmupDiscardsCounters(t *testing.T) {
	cfg := testConfig(core.SMT(), 2)
	cfg.WarmupInstrs = cfg.LimitInstrs / 2
	m := mustMix(t, "mmmm")
	profs, _ := m.Profiles()
	s, err := NewWorkload(cfg, profs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// After warmup reset, we still need LimitInstrs *post-warmup*.
	if r.Instrs < cfg.LimitInstrs {
		t.Fatalf("instrs %d below limit %d", r.Instrs, cfg.LimitInstrs)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	cfg := testConfig(core.SMT(), 2)
	cfg.MaxCycles = 100 // absurdly small
	cfg.WarmupInstrs = 0
	m := mustMix(t, "mmmm")
	profs, _ := m.Profiles()
	s, err := NewWorkload(cfg, profs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("runaway guard did not fire")
	} else if !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestRenamedClustersMapToRawAddresses pins how the DCache paths undo
// cluster renaming. The engine reports loads at renamed clusters, and a
// load at renamed cluster c must access the address of raw cluster
// (c-rotation) mod n. Stores commit in ascending renamed order. The
// DCache here is one 4-way set, so three fresh lines touched after an
// access evict every other line, and only the address accessed last is
// still resident; over every pair of store clusters that fixes their
// order.
func TestRenamedClustersMapToRawAddresses(t *testing.T) {
	const n = 4
	cfg := testConfig(core.SMT(), 1)
	cfg.DCache = cache.Config{SizeBytes: cache.Ways * 64, LineBytes: 64, MissPenalty: 1}
	var ti synth.TInst
	for c := range ti.MemAddr[:n] {
		ti.MemAddr[c] = 0x1000 * uint64(c+1)
	}
	// onlyLast reports whether raw cluster want's address was the one
	// accessed last.
	onlyLast := func(dc *cache.Cache, want int) bool {
		for _, fresh := range []uint64{0x10000, 0x20000, 0x30000} {
			dc.Access(fresh)
		}
		for raw := 0; raw < n; raw++ {
			if dc.Probe(ti.MemAddr[raw]) != (raw == want) {
				return false
			}
		}
		return true
	}
	for by := 0; by < n; by++ {
		s := &Simulator{cfg: cfg, dc: cache.MustNew(cfg.DCache), ctxs: []ctx{{ti: &ti, rotation: by}}}
		for c := 0; c < n; c++ {
			s.accountLoads(0, &core.ThreadResult{LoadsAt: 1 << uint(c)}, 0)
			if raw := (c - by + n) % n; !onlyLast(s.dc, raw) {
				t.Errorf("rotation %d: a load at renamed cluster %d did not access raw cluster %d", by, c, raw)
			}
		}
		for stores := uint8(1); stores < 1<<n; stores++ {
			last := -1
			for c := 0; c < n; c++ { // renamed order
				if raw := (c - by + n) % n; stores&(1<<uint(raw)) != 0 {
					last = raw
				}
			}
			ti.Stores = stores
			s.commitStores(&s.ctxs[0])
			if !onlyLast(s.dc, last) {
				t.Errorf("rotation %d, stores %04b: raw cluster %d was not the last store committed", by, stores, last)
			}
		}
	}
}
