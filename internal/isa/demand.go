package isa

// BundleDemand summarizes the resources one bundle needs from its cluster.
// The timing simulator works on demands instead of full operation lists so
// that trace-driven synthetic workloads and the functional machine share one
// issue engine. The blank byte pads a demand to one 8-byte word, so an
// instruction's eight bundles fill one 64-byte host cache line.
type BundleDemand struct {
	Ops  uint8 // issue slots (total operations)
	ALU  uint8 // operations needing an ALU (includes branches and comm)
	Mul  uint8 // operations needing a multiplier
	Mem  uint8 // operations needing the load/store unit
	Load bool  // the memory op (if any) is a load
	Stor bool  // the memory op (if any) is a store
	Comm bool  // bundle contains a send or recv
	_    uint8
}

// IsEmpty reports whether the bundle demands nothing.
func (d BundleDemand) IsEmpty() bool { return d.Ops == 0 }

// FitsAlone reports whether the demand fits the per-cluster resources on an
// otherwise empty cluster.
func (d BundleDemand) FitsAlone(g Geometry) bool {
	return int(d.Ops) <= g.IssueWidth &&
		int(d.ALU) <= g.ALUs &&
		int(d.Mul) <= g.Muls &&
		int(d.Mem) <= g.MemUnits
}

// InstrDemand summarizes a whole VLIW instruction for the issue engine.
type InstrDemand struct {
	B       [MaxClusters]BundleDemand
	HasComm bool // any bundle contains send/recv
	Taken   bool // instruction ends with a taken branch (trace-driven hint)
}

// DemandOfBundle computes the resource demand of an operation list.
func DemandOfBundle(b Bundle) BundleDemand {
	var d BundleDemand
	for i := range b {
		d.Ops++
		switch b[i].Class() {
		case ClassMul:
			d.Mul++
		case ClassMem:
			d.Mem++
			if b[i].Op == Ldw {
				d.Load = true
			} else {
				d.Stor = true
			}
		case ClassComm:
			d.ALU++
			d.Comm = true
		default: // ALU and branch occupy an ALU
			d.ALU++
		}
	}
	return d
}

// DemandOf computes the per-cluster demand of a full instruction.
func DemandOf(in *Instruction) InstrDemand {
	var d InstrDemand
	for c := range in.Bundles {
		d.B[c] = DemandOfBundle(in.Bundles[c])
		if d.B[c].Comm {
			d.HasComm = true
		}
	}
	return d
}

// NumOps returns the total operation count of the instruction demand.
func (d *InstrDemand) NumOps() int {
	n := 0
	for c := range d.B {
		n += int(d.B[c].Ops)
	}
	return n
}

// Summary condenses an instruction demand into the words the issue engine
// tests with mask arithmetic instead of walking the bundles.
type Summary struct {
	Ops    uint64 // byte c: B[c].Ops
	Live   uint8  // bit c: B[c].Ops > 0
	Loads  uint8  // bit c: B[c].Load
	Stores uint8  // bit c: B[c].Stor
	Comm   uint8  // bit c: B[c].Comm
}

// Summary returns the demand's Summary.
func (d *InstrDemand) Summary() Summary {
	var s Summary
	for c := range d.B {
		b := &d.B[c]
		s.Ops |= uint64(b.Ops) << (8 * uint(c))
		if b.Load {
			s.Loads |= 1 << uint(c)
		}
		if b.Stor {
			s.Stores |= 1 << uint(c)
		}
		if b.Comm {
			s.Comm |= 1 << uint(c)
		}
	}
	s.Live = d.UsedClusters()
	return s
}

// UsedClusters returns a bitmask of clusters with non-empty demand.
func (d *InstrDemand) UsedClusters() uint8 {
	var mask uint8
	for c := range d.B {
		if !d.B[c].IsEmpty() {
			mask |= 1 << uint(c)
		}
	}
	return mask
}

// Rotate returns the demand rotated by `by` clusters (cluster renaming).
func (d *InstrDemand) Rotate(by, clusters int) InstrDemand {
	if clusters <= 0 {
		return *d
	}
	by = ((by % clusters) + clusters) % clusters
	if by == 0 {
		return *d
	}
	out := InstrDemand{HasComm: d.HasComm, Taken: d.Taken}
	for c := 0; c < clusters; c++ {
		out.B[(c+by)%clusters] = d.B[c]
	}
	return out
}
