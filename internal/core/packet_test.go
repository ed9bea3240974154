package core

import (
	"testing"
	"testing/quick"

	"vexsmt/internal/isa"
)

func TestPacketResetAndBusy(t *testing.T) {
	p := NewPacket(isa.ST200x4)
	p.Reset()
	if p.ClusterBusy(0) || p.TotalOps() != 0 {
		t.Fatal("fresh packet not empty")
	}
	p.AddBundle(1, alu(2))
	if !p.ClusterBusy(1) || p.ClusterBusy(0) {
		t.Fatal("busy tracking wrong")
	}
	if p.TotalOps() != 2 || p.SlackOps(1) != 2 || p.SlackOps(0) != 4 {
		t.Fatal("op accounting wrong")
	}
	p.Reset()
	if p.ClusterBusy(1) || p.TotalOps() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestFitsBundleEmptyAlwaysFits(t *testing.T) {
	p := NewPacket(isa.ST200x4)
	p.Reset()
	p.AddBundle(0, alu(4)) // cluster full
	if !p.FitsBundle(0, isa.BundleDemand{}, MergeOperation) {
		t.Fatal("empty bundle rejected under operation merge")
	}
	if !p.FitsBundle(0, isa.BundleDemand{}, MergeCluster) {
		t.Fatal("empty bundle rejected under cluster merge")
	}
}

func TestFitsBundleClusterVsOperation(t *testing.T) {
	p := NewPacket(isa.ST200x4)
	p.Reset()
	p.AddBundle(2, alu(1))
	// One more ALU op fits at operation level but not at cluster level.
	if !p.FitsBundle(2, alu(1), MergeOperation) {
		t.Fatal("operation-level fit rejected")
	}
	if p.FitsBundle(2, alu(1), MergeCluster) {
		t.Fatal("cluster-level collision missed")
	}
}

func TestFitsBundlePerClassLimits(t *testing.T) {
	p := NewPacket(isa.ST200x4) // 4 slots, 4 ALU, 2 MUL, 1 MEM
	p.Reset()
	p.AddBundle(0, bd(0, 2, 0, false, false)) // both multipliers busy
	if p.FitsBundle(0, bd(0, 1, 0, false, false), MergeOperation) {
		t.Fatal("third multiply accepted")
	}
	if !p.FitsBundle(0, bd(1, 0, 1, true, false), MergeOperation) {
		t.Fatal("ALU+MEM rejected with slots free")
	}
	p.AddBundle(0, bd(1, 0, 1, true, false))
	if p.FitsBundle(0, bd(0, 0, 1, false, true), MergeOperation) {
		t.Fatal("second memory op accepted with 1 LSU")
	}
	// Slots exhausted at 4 even if classes have room.
	if p.FitsBundle(0, alu(1), MergeOperation) {
		t.Fatal("fifth op accepted on 4-issue cluster")
	}
}

func TestTakeOpsPrefersScarceUnits(t *testing.T) {
	p := NewPacket(isa.ST200x4)
	p.Reset()
	p.AddBundle(0, alu(3)) // 1 slot left
	rem := bd(1, 1, 1, true, false)
	take := p.TakeOps(0, rem)
	if take.Ops != 1 || take.Mem != 1 {
		t.Fatalf("TakeOps should grab the memory op first: %+v", take)
	}
	if !take.Load {
		t.Fatal("load flag lost")
	}
}

func TestTakeOpsEmptyWhenFull(t *testing.T) {
	p := NewPacket(isa.ST200x4)
	p.Reset()
	p.AddBundle(0, alu(4))
	if take := p.TakeOps(0, alu(2)); !take.IsEmpty() {
		t.Fatalf("took ops from a full cluster: %+v", take)
	}
	if take := p.TakeOps(1, isa.BundleDemand{}); !take.IsEmpty() {
		t.Fatal("took ops from empty demand")
	}
}

// Property: TakeOps never exceeds the remaining demand nor the cluster's
// free resources, and its class counts always sum to Ops.
func TestTakeOpsProperty(t *testing.T) {
	g := isa.ST200x4
	f := func(preALU, preMul, preMem, remALU, remMul, remMem uint8) bool {
		p := NewPacket(g)
		p.Reset()
		pre := isa.BundleDemand{
			ALU: preALU % 5, Mul: preMul % 3, Mem: preMem % 2,
		}
		pre.Ops = pre.ALU + pre.Mul + pre.Mem
		if !pre.FitsAlone(g) {
			return true // skip illegal premise
		}
		p.AddBundle(0, pre)
		rem := isa.BundleDemand{
			ALU: remALU % 6, Mul: remMul % 4, Mem: remMem % 3,
		}
		rem.Ops = rem.ALU + rem.Mul + rem.Mem
		take := p.TakeOps(0, rem)
		if take.Ops != take.ALU+take.Mul+take.Mem {
			return false
		}
		if take.ALU > rem.ALU || take.Mul > rem.Mul || take.Mem > rem.Mem {
			return false
		}
		sum := addDemand(pre, take)
		return int(sum.Ops) <= g.IssueWidth && int(sum.ALU) <= g.ALUs &&
			int(sum.Mul) <= g.Muls && int(sum.Mem) <= g.MemUnits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: after AddBundle of any demand accepted by FitsBundle under
// operation merge, the packet never exceeds cluster resources.
func TestAddBundleNeverOversubscribes(t *testing.T) {
	g := isa.ST200x4
	f := func(steps []uint16) bool {
		p := NewPacket(g)
		p.Reset()
		for _, s := range steps {
			d := isa.BundleDemand{
				ALU: uint8(s) % 5, Mul: uint8(s>>4) % 3, Mem: uint8(s>>8) % 2,
			}
			d.Ops = d.ALU + d.Mul + d.Mem
			c := int(s>>12) % g.Clusters
			if p.FitsBundle(c, d, MergeOperation) {
				p.AddBundle(c, d)
			}
			u := p.Used(c)
			if int(u.Ops) > g.IssueWidth || int(u.ALU) > g.ALUs ||
				int(u.Mul) > g.Muls || int(u.Mem) > g.MemUnits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FitsWhole is the conjunction of per-cluster fits (the AND gates of
// Figure 7a).
func TestFitsWholeIsConjunction(t *testing.T) {
	g := isa.ST200x4
	p := NewPacket(g)
	p.Reset()
	p.AddBundle(0, alu(4))
	var rem [isa.MaxClusters]isa.BundleDemand
	rem[1] = alu(2)
	if !p.FitsWhole(&rem, MergeOperation) {
		t.Fatal("non-conflicting whole rejected")
	}
	rem[0] = alu(1)
	if p.FitsWhole(&rem, MergeOperation) {
		t.Fatal("conflicting whole accepted")
	}
}

// Cluster-merge acceptance implies operation-merge acceptance (the paper:
// "if a pair of instructions can be merged by CSMT, it can always be merged
// by SMT but not vice-versa").
func TestClusterMergeImpliesOperationMerge(t *testing.T) {
	g := isa.ST200x4
	f := func(aOps, bOps [4]uint8, aCl, bCl uint8) bool {
		p := NewPacket(g)
		p.Reset()
		var a, b [isa.MaxClusters]isa.BundleDemand
		for c := 0; c < 4; c++ {
			if aCl&(1<<uint(c)) != 0 {
				a[c] = alu(int(aOps[c]%4) + 1)
			}
			if bCl&(1<<uint(c)) != 0 {
				b[c] = alu(int(bOps[c]%4) + 1)
			}
		}
		for c := 0; c < 4; c++ {
			if !p.FitsBundle(c, a[c], MergeOperation) {
				return true // a alone illegal; skip
			}
			p.AddBundle(c, a[c])
		}
		if p.FitsWhole(&b, MergeCluster) && !p.FitsWhole(&b, MergeOperation) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
