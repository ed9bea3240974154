package core

import "vexsmt/internal/isa"

// Packet is the reference model of the execution packet being assembled
// for one cycle: the resources already claimed at every cluster, checked
// and merged one field at a time. The collision-detection logic (CL in
// Figure 7) checks a candidate bundle against the packet; the merge logic
// (ML) then adds it. The engine computes the same decisions with cluster
// masks and lane words; refEngine (engine_equiv_test.go) and the figure
// tests drive this model so the two can be compared.
//
// The per-cluster scratch is epoch-stamped: Reset is a single counter
// increment, and a cluster's claimed resources are live only when its
// stamp matches the current epoch.
type Packet struct {
	clusters int
	// Per-cluster limits (NewPacket time).
	width, alus, muls, mems int

	epoch uint32
	stamp [isa.MaxClusters]uint32
	used  [isa.MaxClusters]isa.BundleDemand
}

// NewPacket returns an empty packet for the given machine geometry.
func NewPacket(geom isa.Geometry) *Packet {
	return &Packet{
		clusters: geom.Clusters,
		width:    geom.IssueWidth,
		alus:     geom.ALUs,
		muls:     geom.Muls,
		mems:     geom.MemUnits,
		epoch:    1, // with all stamps 0: an empty packet
	}
}

// Reset empties the packet for a new cycle: one increment, no clearing loop.
func (p *Packet) Reset() {
	p.epoch++
	if p.epoch == 0 {
		// Epoch wrapped (once per 2^32 cycles): stale stamps could alias the
		// new epoch, so clear them and restart.
		p.stamp = [isa.MaxClusters]uint32{}
		p.epoch = 1
	}
}

// live reports whether cluster c's scratch belongs to the current cycle.
// AddBundle only ever records non-empty demand, so a live cluster is a busy
// cluster.
func (p *Packet) live(c int) bool { return p.stamp[c] == p.epoch }

// ClusterBusy reports whether any operations occupy cluster c.
func (p *Packet) ClusterBusy(c int) bool { return p.live(c) }

// Used returns the resources claimed at cluster c so far this cycle.
func (p *Packet) Used(c int) isa.BundleDemand {
	if !p.live(c) {
		return isa.BundleDemand{}
	}
	return p.used[c]
}

// FitsBundle is the collision-detection logic for one cluster: it reports
// whether demand d can join cluster c under the given merge policy.
func (p *Packet) FitsBundle(c int, d isa.BundleDemand, merge MergePolicy) bool {
	if d.IsEmpty() {
		return true
	}
	if merge == MergeCluster {
		return !p.live(c)
	}
	return p.fitsOps(c, &d)
}

// fitsOps checks d against the free operation-level resources of cluster c.
func (p *Packet) fitsOps(c int, d *isa.BundleDemand) bool {
	if !p.live(c) {
		return int(d.Ops) <= p.width &&
			int(d.ALU) <= p.alus &&
			int(d.Mul) <= p.muls &&
			int(d.Mem) <= p.mems
	}
	u := &p.used[c]
	return int(u.Ops)+int(d.Ops) <= p.width &&
		int(u.ALU)+int(d.ALU) <= p.alus &&
		int(u.Mul)+int(d.Mul) <= p.muls &&
		int(u.Mem)+int(d.Mem) <= p.mems
}

// FitsWhole checks every cluster of an instruction's remaining demand: the
// AND across clusters in Figure 7(a). Only when no cluster collides may a
// whole instruction merge.
func (p *Packet) FitsWhole(rem *[isa.MaxClusters]isa.BundleDemand, merge MergePolicy) bool {
	for c := 0; c < p.clusters; c++ {
		if !p.FitsBundle(c, rem[c], merge) {
			return false
		}
	}
	return true
}

// AddBundle merges demand d into cluster c. The caller must have checked
// FitsBundle.
func (p *Packet) AddBundle(c int, d isa.BundleDemand) {
	if d.IsEmpty() {
		return
	}
	p.add(c, &d)
}

// add is AddBundle without the empty check.
func (p *Packet) add(c int, d *isa.BundleDemand) {
	if !p.live(c) {
		p.used[c] = *d
		p.stamp[c] = p.epoch
		return
	}
	p.used[c] = addDemand(p.used[c], *d)
}

// SlackOps returns the free issue slots remaining at cluster c.
func (p *Packet) SlackOps(c int) int {
	if !p.live(c) {
		return p.width
	}
	return p.width - int(p.used[c].Ops)
}

// TotalOps returns the number of operations in the packet.
func (p *Packet) TotalOps() int {
	n := 0
	for c := 0; c < p.clusters; c++ {
		if p.live(c) {
			n += int(p.used[c].Ops)
		}
	}
	return n
}

// TakeOps carves the largest sub-demand of rem that fits cluster c under
// operation-level merging, preferring scarce units first (memory, then
// multiplier, then ALU). It returns the demand actually taken. This is the
// operation-level split-issue selection: individual operations of a bundle
// may issue in different cycles.
func (p *Packet) TakeOps(c int, rem isa.BundleDemand) isa.BundleDemand {
	if rem.IsEmpty() {
		return isa.BundleDemand{}
	}
	return p.take(c, &rem)
}

// take is TakeOps without the empty check.
func (p *Packet) take(c int, rem *isa.BundleDemand) isa.BundleDemand {
	var u *isa.BundleDemand
	if p.live(c) {
		u = &p.used[c]
	} else {
		u = &emptyDemand
	}
	slots := p.width - int(u.Ops)
	if slots <= 0 {
		return isa.BundleDemand{}
	}
	var take isa.BundleDemand
	m := min3(int(rem.Mem), p.mems-int(u.Mem), slots)
	take.Mem = uint8(m)
	slots -= m
	mu := min3(int(rem.Mul), p.muls-int(u.Mul), slots)
	take.Mul = uint8(mu)
	slots -= mu
	a := min3(int(rem.ALU), p.alus-int(u.ALU), slots)
	take.ALU = uint8(a)
	take.Ops = take.Mem + take.Mul + take.ALU
	if take.Mem > 0 {
		// The single LSU op of the bundle is either a load or a store.
		take.Load = rem.Load
		take.Stor = rem.Stor
	}
	take.Comm = rem.Comm && take.ALU > 0
	return take
}

var emptyDemand isa.BundleDemand

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	if a < 0 {
		return 0
	}
	return a
}

// subDemand returns d minus take (component-wise), clearing satisfied
// flags. take must be a sub-demand of d.
func subDemand(d, take isa.BundleDemand) isa.BundleDemand {
	out := isa.BundleDemand{
		Ops: d.Ops - take.Ops,
		ALU: d.ALU - take.ALU,
		Mul: d.Mul - take.Mul,
		Mem: d.Mem - take.Mem,
	}
	if out.Mem > 0 {
		out.Load = d.Load
		out.Stor = d.Stor
	}
	if d.Comm && out.ALU > 0 {
		out.Comm = true
	}
	return out
}

// addDemand returns the component-wise sum of two demands.
func addDemand(d, o isa.BundleDemand) isa.BundleDemand {
	return isa.BundleDemand{
		Ops: d.Ops + o.Ops, ALU: d.ALU + o.ALU, Mul: d.Mul + o.Mul, Mem: d.Mem + o.Mem,
		Load: d.Load || o.Load, Stor: d.Stor || o.Stor, Comm: d.Comm || o.Comm,
	}
}
