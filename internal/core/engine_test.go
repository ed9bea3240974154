package core

import (
	"testing"

	"vexsmt/internal/isa"
	"vexsmt/internal/rng"
)

func TestNewEngineRejectsBadConfigs(t *testing.T) {
	if _, err := NewEngine(isa.Geometry{}, SMT(), 2); err == nil {
		t.Error("invalid geometry accepted")
	}
	if _, err := NewEngine(isa.ST200x4, Technique{Merge: MergeCluster, Split: SplitOperation}, 2); err == nil {
		t.Error("ruled-out technique accepted")
	}
	if _, err := NewEngine(isa.ST200x4, SMT(), 0); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := NewEngine(isa.ST200x4, SMT(), MaxThreads+1); err == nil {
		t.Error("too many threads accepted")
	}
}

func TestLoadPanicsOnBusyThread(t *testing.T) {
	eng, _ := NewEngine(isa.ST200x4, SMT(), 1)
	eng.Load(0, instr(alu(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("second Load did not panic")
		}
	}()
	eng.Load(0, instr(alu(1)))
}

func TestSingleThreadAllTechniquesIdentical(t *testing.T) {
	// With one thread there is nothing to merge with, so all techniques
	// must produce identical cycle counts on the same instruction stream.
	r := rng.New(101)
	stream := randomStream(r, isa.ST200x4, 300, 0)
	var counts []int
	for _, tech := range AllTechniques() {
		res := schedule(t, isa.ST200x4, tech, [][]isa.InstrDemand{stream}, 10_000)
		counts = append(counts, len(res))
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("technique %s: %d cycles, %s had %d",
				AllTechniques()[i].Name(), counts[i], AllTechniques()[0].Name(), counts[0])
		}
	}
	// One instruction per cycle: a single thread never conflicts with itself.
	if counts[0] != 300 {
		t.Fatalf("single thread took %d cycles for 300 instructions", counts[0])
	}
}

// randomStream produces n compiler-legal instruction demands. commProb adds
// send/recv pairs.
func randomStream(r *rng.Rand, g isa.Geometry, n int, commProb float64) []isa.InstrDemand {
	out := make([]isa.InstrDemand, n)
	for i := range out {
		var d isa.InstrDemand
		clusters := 1 + r.Intn(g.Clusters)
		for k := 0; k < clusters; k++ {
			c := r.Intn(g.Clusters)
			ops := 1 + r.Intn(g.IssueWidth)
			var b isa.BundleDemand
			for o := 0; o < ops; o++ {
				switch {
				case int(b.Mem) < g.MemUnits && r.Bool(0.2):
					b.Mem++
					if r.Bool(0.7) {
						b.Load = true
					} else {
						b.Stor = true
					}
				case int(b.Mul) < g.Muls && r.Bool(0.2):
					b.Mul++
				default:
					b.ALU++
				}
				b.Ops++
			}
			d.B[c] = b
		}
		if r.Bool(commProb) && g.Clusters > 1 {
			// Attach a send/recv pair on two clusters with slack.
			src, dst := 0, 1
			if int(d.B[src].Ops) < g.IssueWidth && int(d.B[src].ALU) < g.ALUs {
				d.B[src].Ops++
				d.B[src].ALU++
				d.B[src].Comm = true
			} else {
				d.B[src].Comm = d.B[src].Ops > 0
			}
			if int(d.B[dst].Ops) < g.IssueWidth && int(d.B[dst].ALU) < g.ALUs {
				d.B[dst].Ops++
				d.B[dst].ALU++
				d.B[dst].Comm = true
			} else {
				d.B[dst].Comm = d.B[dst].Ops > 0
			}
			d.HasComm = d.B[src].Comm || d.B[dst].Comm
		}
		out[i] = d
	}
	return out
}

func countOps(streams [][]isa.InstrDemand) int {
	total := 0
	for _, s := range streams {
		for i := range s {
			total += s[i].NumOps()
		}
	}
	return total
}

func TestOpConservationAllTechniques(t *testing.T) {
	// Every operation of every instruction is issued exactly once,
	// regardless of technique.
	r := rng.New(77)
	streams := [][]isa.InstrDemand{
		randomStream(r, isa.ST200x4, 200, 0.1),
		randomStream(r, isa.ST200x4, 200, 0.1),
		randomStream(r, isa.ST200x4, 200, 0.1),
		randomStream(r, isa.ST200x4, 200, 0.1),
	}
	want := countOps(streams)
	for _, tech := range AllTechniques() {
		res := schedule(t, isa.ST200x4, tech, streams, 100_000)
		got := 0
		for _, cr := range res {
			got += cr.Ops
		}
		if got != want {
			t.Errorf("%s: issued %d ops, want %d", tech.Name(), got, want)
		}
	}
}

func TestInstructionCompletionCounts(t *testing.T) {
	// Every instruction produces exactly one LastPart event per thread.
	r := rng.New(88)
	streams := [][]isa.InstrDemand{
		randomStream(r, isa.ST200x4, 150, 0.05),
		randomStream(r, isa.ST200x4, 150, 0.05),
	}
	for _, tech := range AllTechniques() {
		res := schedule(t, isa.ST200x4, tech, streams, 100_000)
		var completions [2]int
		for _, cr := range res {
			for th := 0; th < 2; th++ {
				if cr.Thread[th].LastPart {
					completions[th]++
				}
			}
		}
		for th := 0; th < 2; th++ {
			if completions[th] != len(streams[th]) {
				t.Errorf("%s thread %d: %d completions, want %d",
					tech.Name(), th, completions[th], len(streams[th]))
			}
		}
	}
}

func TestHighestPriorityThreadNeverSplits(t *testing.T) {
	// "Thread T0 is always selected in its entirety because it is the
	// highest priority thread" — whoever holds top priority in a cycle and
	// has a fresh (unstarted) instruction must issue it completely.
	r := rng.New(99)
	streams := [][]isa.InstrDemand{
		randomStream(r, isa.ST200x4, 100, 0),
		randomStream(r, isa.ST200x4, 100, 0),
		randomStream(r, isa.ST200x4, 100, 0),
	}
	for _, tech := range AllTechniques() {
		eng, err := NewEngine(isa.ST200x4, tech, 3)
		if err != nil {
			t.Fatal(err)
		}
		next := make([]int, 3)
		var ready [MaxThreads]bool
		for th := range ready[:3] {
			ready[th] = true
		}
		for cycle := 0; cycle < 10000; cycle++ {
			done := true
			for th := 0; th < 3; th++ {
				if !eng.Active(th) && next[th] < len(streams[th]) {
					eng.Load(th, streams[th][next[th]])
					next[th]++
				}
				if eng.Active(th) {
					done = false
				}
			}
			if done {
				break
			}
			top := eng.prio.Peek()
			freshTop := eng.Active(top) && !eng.Started(top)
			res := eng.Cycle(&ready)
			if freshTop && !res.Thread[top].LastPart {
				t.Fatalf("%s cycle %d: top-priority thread %d with fresh instruction did not complete: %+v",
					tech.Name(), cycle, top, res.Thread[top])
			}
		}
	}
}

func TestNoSplitNeverPartial(t *testing.T) {
	// SMT and CSMT must never report a split instruction.
	r := rng.New(111)
	streams := [][]isa.InstrDemand{
		randomStream(r, isa.ST200x4, 200, 0.1),
		randomStream(r, isa.ST200x4, 200, 0.1),
		randomStream(r, isa.ST200x4, 200, 0.1),
	}
	for _, tech := range []Technique{SMT(), CSMT()} {
		res := schedule(t, isa.ST200x4, tech, streams, 100_000)
		for i, cr := range res {
			for th := 0; th < 3; th++ {
				if cr.Thread[th].Split {
					t.Fatalf("%s cycle %d: thread %d split", tech.Name(), i, th)
				}
				if cr.Thread[th].Ops > 0 && !cr.Thread[th].LastPart {
					t.Fatalf("%s cycle %d: thread %d partial issue", tech.Name(), i, th)
				}
			}
		}
	}
}

func TestNSCommInstructionsNeverSplit(t *testing.T) {
	// Under the NS policy an instruction containing send/recv must always
	// issue in its entirety (single cycle), for every split technique.
	r := rng.New(123)
	streams := [][]isa.InstrDemand{
		randomStream(r, isa.ST200x4, 300, 0.5),
		randomStream(r, isa.ST200x4, 300, 0.5),
		randomStream(r, isa.ST200x4, 300, 0.5),
		randomStream(r, isa.ST200x4, 300, 0.5),
	}
	for _, tech := range []Technique{CCSI(CommNoSplit), COSI(CommNoSplit), OOSI(CommNoSplit)} {
		eng, err := NewEngine(isa.ST200x4, tech, 4)
		if err != nil {
			t.Fatal(err)
		}
		next := make([]int, 4)
		current := make([]isa.InstrDemand, 4)
		var ready [MaxThreads]bool
		for th := 0; th < 4; th++ {
			ready[th] = true
		}
		for cycle := 0; cycle < 100_000; cycle++ {
			done := true
			for th := 0; th < 4; th++ {
				if !eng.Active(th) && next[th] < len(streams[th]) {
					current[th] = streams[th][next[th]]
					eng.Load(th, current[th])
					next[th]++
				}
				if eng.Active(th) {
					done = false
				}
			}
			if done {
				break
			}
			res := eng.Cycle(&ready)
			for th := 0; th < 4; th++ {
				tr := res.Thread[th]
				if current[th].HasComm && tr.Ops > 0 && !tr.LastPart {
					t.Fatalf("%s cycle %d: comm instruction of thread %d split under NS",
						tech.Name(), cycle, th)
				}
			}
		}
	}
}

func TestASCommInstructionsMaySplit(t *testing.T) {
	// Under AS, a comm instruction can split: construct a guaranteed case.
	comm := instr(
		isa.BundleDemand{Ops: 1, ALU: 1, Comm: true},
		isa.BundleDemand{Ops: 1, ALU: 1, Comm: true},
	)
	comm.HasComm = true
	queues := [][]isa.InstrDemand{
		{instr(alu(2)), instr(alu(2))}, // thread 0 hogs cluster 0
		{comm},
	}
	res := schedule(t, fig5Geom(), CCSI(CommAlwaysSplit), queues, 20)
	sawSplit := false
	for _, cr := range res {
		if cr.Thread[1].Split {
			sawSplit = true
		}
	}
	if !sawSplit {
		t.Fatal("comm instruction never split under AS in a forced-conflict scenario")
	}
	// The same scenario under NS must not split.
	resNS := schedule(t, fig5Geom(), CCSI(CommNoSplit), queues, 20)
	for i, cr := range resNS {
		if cr.Thread[1].Split {
			t.Fatalf("cycle %d: comm instruction split under NS", i)
		}
	}
}

func TestSplitTechniquesNeverSlowerOnAverage(t *testing.T) {
	// Statistical sanity over many random 4-thread workloads: adding
	// split-issue should reduce total cycles versus the same merge policy
	// without split, and operation split should beat cluster split. These
	// are the paper's headline qualitative claims.
	r := rng.New(2024)
	var csmt, ccsi, smt, cosi, oosi int
	for trial := 0; trial < 30; trial++ {
		streams := [][]isa.InstrDemand{
			randomStream(r, isa.ST200x4, 60, 0.05),
			randomStream(r, isa.ST200x4, 60, 0.05),
			randomStream(r, isa.ST200x4, 60, 0.05),
			randomStream(r, isa.ST200x4, 60, 0.05),
		}
		csmt += len(schedule(t, isa.ST200x4, CSMT(), streams, 100_000))
		ccsi += len(schedule(t, isa.ST200x4, CCSI(CommAlwaysSplit), streams, 100_000))
		smt += len(schedule(t, isa.ST200x4, SMT(), streams, 100_000))
		cosi += len(schedule(t, isa.ST200x4, COSI(CommAlwaysSplit), streams, 100_000))
		oosi += len(schedule(t, isa.ST200x4, OOSI(CommAlwaysSplit), streams, 100_000))
	}
	if !(ccsi < csmt) {
		t.Errorf("CCSI (%d cycles) not faster than CSMT (%d)", ccsi, csmt)
	}
	if !(cosi < smt) {
		t.Errorf("COSI (%d cycles) not faster than SMT (%d)", cosi, smt)
	}
	if !(oosi <= cosi) {
		t.Errorf("OOSI (%d cycles) slower than COSI (%d)", oosi, cosi)
	}
	if !(smt < csmt) {
		t.Errorf("SMT (%d cycles) not faster than CSMT (%d)", smt, csmt)
	}
}

func TestNotReadyThreadDoesNotIssue(t *testing.T) {
	eng, _ := NewEngine(isa.ST200x4, SMT(), 2)
	eng.Load(0, instr(alu(2)))
	eng.Load(1, instr(alu(2)))
	var ready [MaxThreads]bool
	ready[0] = true // thread 1 stalled
	res := eng.Cycle(&ready)
	if res.Thread[1].Ops != 0 {
		t.Fatal("stalled thread issued")
	}
	if res.Thread[0].Ops != 2 || !res.Thread[0].LastPart {
		t.Fatalf("ready thread result: %+v", res.Thread[0])
	}
	if eng.Active(1) != true {
		t.Fatal("stalled thread lost its instruction")
	}
}

func TestOOSIInOrderBetweenInstructions(t *testing.T) {
	// Figure 2's rule: operations from Ins1 are not issued until all
	// operations of Ins0 have been issued. The engine enforces this by
	// construction (one in-flight instruction per thread); verify the
	// observable schedule on a narrow machine where Ins0 dribbles out.
	g := isa.Geometry{Clusters: 1, IssueWidth: 3, ALUs: 3, Muls: 1, MemUnits: 1}
	queues := [][]isa.InstrDemand{
		{instr(alu(3)), instr(alu(3))}, // thread 0: hog
		{instr(alu(3)), instr(alu(2))}, // thread 1: must dribble
	}
	res := schedule(t, g, OOSI(CommAlwaysSplit), queues, 50)
	completions := 0
	for i, cr := range res {
		if cr.Thread[1].Ops > 0 && completions == 0 {
			// Before thread 1's first completion, everything it issues
			// belongs to Ins0; afterwards to Ins1. A violation would
			// manifest as more total ops than Ins0 holds before LastPart.
			_ = i
		}
		if cr.Thread[1].LastPart {
			completions++
		}
	}
	if completions != 2 {
		t.Fatalf("thread 1 completed %d instructions, want 2", completions)
	}
	total := 0
	for _, cr := range res {
		total += cr.Thread[1].Ops
	}
	if total != 5 {
		t.Fatalf("thread 1 issued %d ops, want 5", total)
	}
}

func TestStartedFlag(t *testing.T) {
	g := fig5Geom()
	eng, _ := NewEngine(g, CCSI(CommNoSplit), 2)
	eng.Load(0, instr(alu(3), alu(0)))
	eng.Load(1, instr(alu(1), alu(1)))
	var ready [MaxThreads]bool
	ready[0], ready[1] = true, true
	eng.Cycle(&ready) // T0 takes cluster 0 fully; T1 splits: only cluster 1 issues
	if !eng.Started(1) {
		t.Fatal("thread 1 should be marked started after partial issue")
	}
	if eng.Started(0) {
		t.Fatal("thread 0 completed; must not be started")
	}
}
