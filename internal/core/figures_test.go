package core

// Tests in this file reproduce the worked examples of the paper: Figure 1
// (SMT vs CSMT mergeability), Figures 5 and 6 (cycle-by-cycle split-issue
// schedules) and Figure 11 (memory-port contention from delayed stores).

import (
	"testing"

	"vexsmt/internal/isa"
)

// bd builds a bundle demand from per-class op counts.
func bd(alu, mul, mem int, load, stor bool) isa.BundleDemand {
	return isa.BundleDemand{
		Ops: uint8(alu + mul + mem), ALU: uint8(alu), Mul: uint8(mul),
		Mem: uint8(mem), Load: load, Stor: stor,
	}
}

func alu(n int) isa.BundleDemand { return bd(n, 0, 0, false, false) }

// instr builds an InstrDemand from up to MaxClusters bundle demands.
func instr(bundles ...isa.BundleDemand) isa.InstrDemand {
	var d isa.InstrDemand
	for c, b := range bundles {
		d.B[c] = b
		if b.Comm {
			d.HasComm = true
		}
	}
	return d
}

// schedule drives the engine with per-thread instruction queues until all
// drain (or maxCycles elapse) and returns the per-cycle results.
func schedule(t *testing.T, geom isa.Geometry, tech Technique, queues [][]isa.InstrDemand, maxCycles int) []CycleResult {
	t.Helper()
	eng, err := NewEngine(geom, tech, len(queues))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	next := make([]int, len(queues))
	var results []CycleResult
	var ready [MaxThreads]bool
	for cycle := 0; cycle < maxCycles; cycle++ {
		done := true
		for th := range queues {
			if !eng.Active(th) && next[th] < len(queues[th]) {
				eng.Load(th, queues[th][next[th]])
				next[th]++
			}
			ready[th] = true
			if eng.Active(th) {
				done = false
			}
		}
		if done {
			break
		}
		var before [MaxThreads][isa.MaxClusters]isa.BundleDemand
		for th := range queues {
			for c := 0; c < geom.Clusters; c++ {
				before[th][c] = eng.Remaining(th, c)
			}
		}
		res := eng.Cycle(&ready)
		// Invariant: the packet never exceeds per-cluster resources. What
		// issued at a cluster is what left the threads' remaining demand.
		for c := 0; c < geom.Clusters; c++ {
			var u isa.BundleDemand
			for th := range queues {
				u = addDemand(u, subDemand(before[th][c], eng.Remaining(th, c)))
			}
			if int(u.Ops) > geom.IssueWidth || int(u.ALU) > geom.ALUs ||
				int(u.Mul) > geom.Muls || int(u.Mem) > geom.MemUnits {
				t.Fatalf("cycle %d: cluster %d over-subscribed: %+v", cycle, c, u)
			}
		}
		results = append(results, res)
	}
	return results
}

func totalCycles(results []CycleResult) int { return len(results) }

// ---------------------------------------------------------------------------
// Figure 1: instruction merging in SMT and CSMT on a 4-cluster 2-issue/cluster
// machine. Pair I merges under neither policy, Pair II only under SMT,
// Pair III under both.

func fig1Geom() isa.Geometry {
	return isa.Geometry{Clusters: 4, IssueWidth: 2, ALUs: 2, Muls: 1, MemUnits: 1}
}

// canMergePair reports whether thread 1's instruction can join a packet
// already holding thread 0's instruction.
func canMergePair(t *testing.T, geom isa.Geometry, merge MergePolicy, a, b isa.InstrDemand) bool {
	t.Helper()
	p := NewPacket(geom)
	p.Reset()
	for c := 0; c < geom.Clusters; c++ {
		if !p.FitsBundle(c, a.B[c], merge) {
			t.Fatalf("first instruction does not fit an empty packet at cluster %d", c)
		}
		p.AddBundle(c, a.B[c])
	}
	return p.FitsWhole(&b.B, merge)
}

func TestFigure1PairI(t *testing.T) {
	g := fig1Geom()
	// Thread 0 uses clusters 0, 1, 3 with full 2-op bundles (6 ops, two
	// empty issue slots as in the paper); Thread 1 collides at those three
	// clusters even at operation level.
	t0 := instr(bd(1, 0, 1, true, false), alu(2), alu(0), alu(2))
	t1 := instr(bd(0, 1, 0, false, false), alu(1), bd(1, 1, 0, false, false), alu(1))
	if canMergePair(t, g, MergeOperation, t0, t1) {
		t.Error("Pair I merged by SMT; paper says conflicts at clusters 0, 1, 3")
	}
	if canMergePair(t, g, MergeCluster, t0, t1) {
		t.Error("Pair I merged by CSMT")
	}
}

func TestFigure1PairII(t *testing.T) {
	g := fig1Geom()
	// Both threads use clusters 0, 2 and 3, one op each: no operation-level
	// conflict, but cluster-level conflicts everywhere they overlap.
	t0 := instr(alu(1), alu(0), alu(1), bd(0, 0, 1, false, true))
	t1 := instr(alu(1), alu(0), alu(1), alu(1))
	if !canMergePair(t, g, MergeOperation, t0, t1) {
		t.Error("Pair II not merged by SMT; paper says no operation-level conflicts")
	}
	if canMergePair(t, g, MergeCluster, t0, t1) {
		t.Error("Pair II merged by CSMT; paper says clusters 0, 2, 3 conflict")
	}
}

func TestFigure1PairIII(t *testing.T) {
	g := fig1Geom()
	// Thread 0 uses only clusters 1 and 2, thread 1 only clusters 0 and 3.
	t0 := instr(alu(0), bd(1, 0, 1, true, false), bd(0, 0, 1, false, true), alu(0))
	t1 := instr(alu(2), alu(0), alu(0), bd(1, 1, 0, false, false))
	if !canMergePair(t, g, MergeOperation, t0, t1) {
		t.Error("Pair III not merged by SMT")
	}
	if !canMergePair(t, g, MergeCluster, t0, t1) {
		t.Error("Pair III not merged by CSMT")
	}
}

// mergedPacketIdentical checks the paper's note: "if both CSMT and SMT can
// merge a pair of instructions, the final merged instruction is identical".
func TestFigure1MergedPacketIdentical(t *testing.T) {
	g := fig1Geom()
	t0 := instr(alu(0), bd(1, 0, 1, true, false), bd(0, 0, 1, false, true), alu(0))
	t1 := instr(alu(2), alu(0), alu(0), bd(1, 1, 0, false, false))
	var got [2][isa.MaxClusters]isa.BundleDemand
	for i, merge := range []MergePolicy{MergeOperation, MergeCluster} {
		p := NewPacket(g)
		p.Reset()
		for c := 0; c < g.Clusters; c++ {
			p.AddBundle(c, t0.B[c])
		}
		if !p.FitsWhole(&t1.B, merge) {
			t.Fatalf("merge policy %v cannot merge pair III", merge)
		}
		for c := 0; c < g.Clusters; c++ {
			p.AddBundle(c, t1.B[c])
			got[i][c] = p.Used(c)
		}
	}
	if got[0] != got[1] {
		t.Errorf("merged packets differ:\nSMT:  %+v\nCSMT: %+v", got[0], got[1])
	}
}

// ---------------------------------------------------------------------------
// Figure 5: operation-level (OOSI) vs cluster-level (COSI) split-issue under
// operation-level merging, 2 clusters x 3 issue slots.

func fig5Geom() isa.Geometry {
	return isa.Geometry{Clusters: 2, IssueWidth: 3, ALUs: 3, Muls: 2, MemUnits: 1}
}

func fig5Queues() [][]isa.InstrDemand {
	t0Ins0 := instr(alu(2), bd(0, 0, 1, true, false))                     // add,sub | ld
	t0Ins1 := instr(bd(1, 0, 1, false, true), alu(2))                     // st,shr | xor,add
	t1Ins0 := instr(bd(1, 1, 0, false, false), bd(1, 1, 0, false, false)) // mpy,shl | mpy,and
	t1Ins1 := instr(bd(1, 0, 1, true, false), alu(1))                     // sub,ld | or
	return [][]isa.InstrDemand{{t0Ins0, t0Ins1}, {t1Ins0, t1Ins1}}
}

func TestFigure5NoSplitTakesFourCycles(t *testing.T) {
	res := schedule(t, fig5Geom(), SMT(), fig5Queues(), 20)
	if totalCycles(res) != 4 {
		t.Fatalf("SMT took %d cycles, paper says 4 without split-issue", totalCycles(res))
	}
	// No cycle may contain two threads: the paper says merging is
	// impossible at every cycle.
	for i, r := range res {
		if r.Threads != 1 {
			t.Errorf("cycle %d: %d threads in packet, want 1", i, r.Threads)
		}
	}
}

func TestFigure5OOSISchedule(t *testing.T) {
	res := schedule(t, fig5Geom(), OOSI(CommNoSplit), fig5Queues(), 20)
	if totalCycles(res) != 3 {
		t.Fatalf("OOSI took %d cycles, paper says 3", totalCycles(res))
	}
	// Cycle 0: T0 Ins0 fully (3 ops, last part); T1 Ins0 partially: mpy at
	// cluster 0, both cluster-1 ops (3 ops, split).
	c0 := res[0]
	if !c0.Thread[0].LastPart || c0.Thread[0].Ops != 3 {
		t.Errorf("cycle 0 thread 0: %+v", c0.Thread[0])
	}
	if c0.Thread[1].Ops != 3 || c0.Thread[1].LastPart || !c0.Thread[1].Split {
		t.Errorf("cycle 0 thread 1: %+v", c0.Thread[1])
	}
	// Cycle 1: T1 finishes Ins0 (1 op: shl, last part); T0 issues Ins1
	// fully (4 ops) — the paper shows st and shr joining shl at cluster 0.
	c1 := res[1]
	if !c1.Thread[1].LastPart || c1.Thread[1].Ops != 1 {
		t.Errorf("cycle 1 thread 1: %+v", c1.Thread[1])
	}
	if !c1.Thread[0].LastPart || c1.Thread[0].Ops != 4 {
		t.Errorf("cycle 1 thread 0: %+v", c1.Thread[0])
	}
	// Cycle 2: only T1's Ins1 (3 ops) — "OOSI issues operations only from
	// Thread 1" at the third cycle.
	c2 := res[2]
	if c2.Threads != 1 || !c2.Thread[1].LastPart || c2.Thread[1].Ops != 3 {
		t.Errorf("cycle 2: %+v", c2)
	}
}

func TestFigure5COSISchedule(t *testing.T) {
	res := schedule(t, fig5Geom(), COSI(CommNoSplit), fig5Queues(), 20)
	// COSI needs one extra cycle to drain thread 1's cluster-0 bundle; the
	// paper counts 3 cycles for the merge window because that leftover
	// merges with later instructions in steady state.
	if totalCycles(res) != 4 {
		t.Fatalf("COSI took %d cycles, want 4 (3 + leftover bundle)", totalCycles(res))
	}
	// Cycle 0: T0 Ins0 fully; T1 can only place its cluster-1 bundle (the
	// cluster-0 bundle may not split mpy from shl).
	c0 := res[0]
	if !c0.Thread[0].LastPart || c0.Thread[0].Ops != 3 {
		t.Errorf("cycle 0 thread 0: %+v", c0.Thread[0])
	}
	if c0.Thread[1].Ops != 2 || c0.Thread[1].Clusters != 0b10 {
		t.Errorf("cycle 0 thread 1: %+v", c0.Thread[1])
	}
	// Cycle 1: T1 finishes Ins0 at cluster 0 (2 ops, last part); T0 places
	// only Ins1's cluster-1 bundle (cluster 0 has 1 free slot, bundle needs 2).
	c1 := res[1]
	if !c1.Thread[1].LastPart || c1.Thread[1].Ops != 2 || c1.Thread[1].Clusters != 0b01 {
		t.Errorf("cycle 1 thread 1: %+v", c1.Thread[1])
	}
	if c1.Thread[0].Ops != 2 || c1.Thread[0].Clusters != 0b10 || c1.Thread[0].LastPart {
		t.Errorf("cycle 1 thread 0: %+v", c1.Thread[0])
	}
	// Cycle 2: T0 finishes Ins1 at cluster 0; T1's Ins1 merges only its
	// cluster-1 bundle ("merged with instruction Ins1 of Thread 1").
	c2 := res[2]
	if !c2.Thread[0].LastPart || c2.Thread[0].Clusters != 0b01 {
		t.Errorf("cycle 2 thread 0: %+v", c2.Thread[0])
	}
	if c2.Thread[1].Ops != 1 || c2.Thread[1].Clusters != 0b10 || c2.Thread[1].LastPart {
		t.Errorf("cycle 2 thread 1: %+v", c2.Thread[1])
	}
	// Cycle 3: leftover cluster-0 bundle of T1 Ins1.
	c3 := res[3]
	if !c3.Thread[1].LastPart || c3.Thread[1].Ops != 2 {
		t.Errorf("cycle 3 thread 1: %+v", c3.Thread[1])
	}
}

// ---------------------------------------------------------------------------
// Figure 6: cluster-level split-issue with cluster-level merging (CCSI).

func fig6Queues() [][]isa.InstrDemand {
	t0Ins0 := instr(bd(1, 0, 1, true, false))         // add, ld | -
	t0Ins1 := instr(bd(1, 0, 1, false, true), alu(2)) // sub, st | shr, and
	t1Ins0 := instr(bd(1, 1, 0, false, false), bd(1, 1, 0, false, false))
	t1Ins1 := instr(alu(0), alu(2)) // - | shl, sub
	return [][]isa.InstrDemand{{t0Ins0, t0Ins1}, {t1Ins0, t1Ins1}}
}

func TestFigure6CSMTTakesFourCycles(t *testing.T) {
	res := schedule(t, fig5Geom(), CSMT(), fig6Queues(), 20)
	if totalCycles(res) != 4 {
		t.Fatalf("CSMT took %d cycles, paper says 4", totalCycles(res))
	}
	for i, r := range res {
		if r.Threads != 1 {
			t.Errorf("cycle %d: %d threads merged, paper says no merging possible", i, r.Threads)
		}
	}
}

func TestFigure6CCSISchedule(t *testing.T) {
	res := schedule(t, fig5Geom(), CCSI(CommNoSplit), fig6Queues(), 20)
	if totalCycles(res) != 3 {
		t.Fatalf("CCSI took %d cycles, paper says 3", totalCycles(res))
	}
	// Cycle 0: T0 Ins0 at cluster 0 (last part); T1 Ins0's cluster-1 bundle.
	c0 := res[0]
	if !c0.Thread[0].LastPart || c0.Thread[0].Clusters != 0b01 {
		t.Errorf("cycle 0 thread 0: %+v", c0.Thread[0])
	}
	if c0.Thread[1].Clusters != 0b10 || c0.Thread[1].LastPart {
		t.Errorf("cycle 0 thread 1: %+v", c0.Thread[1])
	}
	// Cycle 1: T1 finishes Ins0 at cluster 0; T0's Ins1 places its
	// cluster-1 bundle ("cluster 1 is no longer used by Thread 1").
	c1 := res[1]
	if !c1.Thread[1].LastPart || c1.Thread[1].Clusters != 0b01 {
		t.Errorf("cycle 1 thread 1: %+v", c1.Thread[1])
	}
	if c1.Thread[0].Clusters != 0b10 || c1.Thread[0].LastPart {
		t.Errorf("cycle 1 thread 0: %+v", c1.Thread[0])
	}
	// Cycle 2: T0 finishes at cluster 0; T1's Ins1 issues entirely.
	c2 := res[2]
	if !c2.Thread[0].LastPart || c2.Thread[0].Clusters != 0b01 {
		t.Errorf("cycle 2 thread 0: %+v", c2.Thread[0])
	}
	if !c2.Thread[1].LastPart || c2.Thread[1].Clusters != 0b10 {
		t.Errorf("cycle 2 thread 1: %+v", c2.Thread[1])
	}
}

// ---------------------------------------------------------------------------
// Figure 11: a split-issued store commits from the memory delay buffer when
// the last part issues; if another thread issues a memory operation at the
// same cluster that cycle, the single memory port forces a pipeline stall.

func TestFigure11MemoryPortContention(t *testing.T) {
	g := fig5Geom() // 2 clusters, 1 memory port each
	queues := [][]isa.InstrDemand{
		{ // Thread 0
			instr(alu(0), alu(3)),                   // Ins0: fill cluster 1
			instr(bd(0, 0, 1, false, true), alu(1)), // Ins1: st @c0, alu @c1
		},
		{ // Thread 1
			instr(alu(0), alu(1)),                   // Ins0: 1 op at cluster 1
			instr(bd(0, 0, 1, true, false), alu(0)), // Ins1: ld @c0
		},
	}
	res := schedule(t, g, CCSI(CommNoSplit), queues, 20)
	if len(res) != 3 {
		t.Fatalf("schedule took %d cycles, want 3", len(res))
	}
	// Cycle 1: T0's store split-issues at cluster 0 while cluster 1 is held
	// by T1.
	c1 := res[1]
	if c1.Thread[0].Clusters != 0b01 || c1.Thread[0].LastPart {
		t.Fatalf("cycle 1 thread 0: %+v (store should split-issue alone)", c1.Thread[0])
	}
	// Cycle 2: T0's last part issues at cluster 1, committing the buffered
	// store at cluster 0; T1's load also issues at cluster 0.
	c2 := res[2]
	if !c2.Thread[0].LastPart {
		t.Fatalf("cycle 2 thread 0: %+v", c2.Thread[0])
	}
	if c2.Commits[0] != 1 {
		t.Fatalf("cycle 2 commits at cluster 0 = %d, want 1", c2.Commits[0])
	}
	if c2.MemOps[0] != 1 {
		t.Fatalf("cycle 2 mem ops at cluster 0 = %d, want 1 (thread 1's load)", c2.MemOps[0])
	}
	if over := c2.MemPortOverflow(g); over != 1 {
		t.Fatalf("memory port overflow = %d, want 1 stall cycle", over)
	}
}

// A store issued in the instruction's last part writes memory directly and
// must not be double-counted as a delayed commit.
func TestLastPartStoreNotBuffered(t *testing.T) {
	g := fig5Geom()
	queues := [][]isa.InstrDemand{
		{instr(bd(0, 0, 1, false, true), alu(1))},
	}
	res := schedule(t, g, CCSI(CommNoSplit), queues, 5)
	if len(res) != 1 {
		t.Fatalf("took %d cycles, want 1", len(res))
	}
	if res[0].Commits[0] != 0 {
		t.Fatalf("commits = %d, want 0 for unsplit store", res[0].Commits[0])
	}
	if res[0].MemOps[0] != 1 {
		t.Fatalf("mem ops = %d, want 1", res[0].MemOps[0])
	}
	if res[0].MemPortOverflow(g) != 0 {
		t.Fatal("unexpected overflow")
	}
}
