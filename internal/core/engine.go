package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"vexsmt/internal/cond"
	"vexsmt/internal/isa"
)

// MaxThreads bounds the hardware thread contexts supported by fixed-size
// arrays. The paper evaluates 1, 2 and 4 threads.
const MaxThreads = 8

// ThreadResult reports what one thread did during a cycle.
type ThreadResult struct {
	Ops      int   // operations issued this cycle
	Clusters uint8 // bitmask of clusters that received operations
	LastPart bool  // instruction completed (entirely issued) this cycle
	Split    bool  // instruction left partially issued after this cycle
	LoadsAt  uint8 // bitmask of clusters where a load issued this cycle
	StoresAt uint8 // bitmask of clusters where a store issued this cycle
}

// CycleResult reports one issue cycle of the whole machine.
type CycleResult struct {
	// Issued is the bitmask of threads that issued operations this cycle:
	// exactly the threads whose Thread entry has Ops > 0. After CycleInto,
	// Thread entries of non-issuing threads may hold stale data from an
	// earlier cycle; consumers on the scratch-reuse path must iterate via
	// Issued. (Cycle returns a fully zeroed result, so indexing Thread
	// directly remains safe there.)
	Issued uint8
	Thread [MaxThreads]ThreadResult
	// MemOps counts memory-port uses per cluster this cycle: loads execute
	// (and use the port) at issue time; stores use the port only when
	// issued in their instruction's last part. Stores issued in an earlier
	// split part write the delay buffer instead and take the port at
	// commit time (counted in Commits).
	MemOps [isa.MaxClusters]uint8
	// Commits counts delayed stores committed per cluster this cycle
	// because their instruction's last part issued (Section V-D).
	Commits [isa.MaxClusters]uint8
	// Ops is the total operation count of the execution packet.
	Ops int
	// Threads is the number of distinct threads in the packet.
	Threads int
}

// MemPortOverflow returns the number of extra cycles the pipeline must
// stall because delayed store commits plus new memory operations exceed the
// per-cluster memory ports (Figure 11: "the pipeline is stalled till all
// the memory operations have been performed"). Clusters drain in parallel,
// so the stall is the maximum per-cluster overflow.
func (r *CycleResult) MemPortOverflow(geom isa.Geometry) int {
	worst := 0
	for c := 0; c < geom.Clusters; c++ {
		total := int(r.MemOps[c]) + int(r.Commits[c])
		if over := total - geom.MemUnits; over > worst {
			worst = over
		}
	}
	return worst
}

// issueKind selects the per-thread issue routine: the merge x split policy
// cross-product lowered at NewEngine/Load time.
type issueKind uint8

const (
	kindWholeCM issueKind = iota // whole instruction, cluster-granularity merge (CSMT; CCSI NS comm)
	kindSplitCM                  // cluster split, cluster-granularity merge (CCSI)
	kindWholeOM                  // whole instruction, operation-granularity merge (SMT; COSI/OOSI NS comm)
	kindSplitOM                  // cluster split, operation-granularity merge (COSI)
	kindOpSplit                  // operation split (OOSI)
)

// The packet and the per-thread remaining demand hold a bundle's four
// resource counts as 16-bit lanes of one word (Ops, ALU, Mul, Mem from the
// low lane up), so one subtraction tests or claims all four at once. A
// free lane holds at most laneMax and a demand lane at most 255, so
// (free|guards) - demand never borrows across lanes, and a lane's guard
// bit survives exactly when its free count covers its demand — the
// collision-detection logic (CL, Figure 7) as a busy-word AND.
const (
	laneMask = 1<<16 - 1
	laneMax  = 1<<15 - 1
	guards   = 0x8000_8000_8000_8000
)

// lanes packs a bundle's resource counts into a lane word: one 32-bit
// load of the four count bytes, spread to 16-bit lanes.
func lanes(b *isa.BundleDemand) uint64 {
	x := uint64(b.Ops) | uint64(b.ALU)<<8 | uint64(b.Mul)<<16 | uint64(b.Mem)<<24
	x = (x | x<<16) & 0x0000_ffff_0000_ffff
	return (x | x<<8) & 0x00ff_00ff_00ff_00ff
}

// byteOnes[m] has byte c set to 1 for each bit c of m: it turns a cluster
// mask into per-cluster counter increments and, times 0xff, into a byte
// mask.
var byteOnes = func() (t [256]uint64) {
	for m := range t {
		for c := 0; c < 8; c++ {
			t[m] |= uint64(m>>c&1) << (8 * c)
		}
	}
	return t
}()

// sumBytes adds the eight bytes of x.
func sumBytes(x uint64) int {
	x = x&0x00ff_00ff_00ff_00ff + x>>8&0x00ff_00ff_00ff_00ff
	return int(x * 0x0001_0001_0001_0001 >> 48)
}

// Engine is the merging hardware plus split-issue state machine. It is
// deliberately independent of fetch, caches and scheduling: the caller
// loads per-thread instruction demands and asks for one issue cycle at a
// time, passing which threads are ready (not stalled).
//
// At construction the Technique (merge policy x split policy x comm
// policy) is lowered into an issue routine per instruction kind and the
// per-cluster resources into lane words. Whether a bundle collides is the
// simulated program's random outcome, so the routines never branch on it:
// cluster-granularity merging is a claimed-cluster mask (a bundle joins
// when its cluster's bit is clear), operation-granularity merging tests
// and claims one lane word per cluster, and the per-thread bookkeeping
// after a cycle is mask arithmetic too.
//
// Per-thread issue state is struct-of-arrays: thread membership flags are
// bitmasks over thread indices (active, started) and the per-thread fields
// (issue kind, cluster masks, op-count bytes, remaining lane words) are
// flat parallel arrays indexed by renamed cluster.
type Engine struct {
	geom isa.Geometry
	tech Technique
	nt   int

	// Lowered decision state (NewEngine time).
	clusters      int
	clusterMask   uint8                   // (1 << clusters) - 1
	threadMask    uint8                   // (1 << threads) - 1
	threadOf      [2 * MaxThreads]uint8   // threadOf[i] = i mod threads
	opsMask       uint64                  // the op-count bytes of clusters [0, clusters)
	loadKind      issueKind               // issue routine for non-comm instructions
	wholeKind     issueKind               // issue routine for instructions that must issue whole
	commDowngrade bool                    // NS + split: comm instructions issue whole
	opMerge       bool                    // the packet tracks free resources, not just claimed clusters
	capacity      [isa.MaxClusters]uint64 // one cluster's resources as lanes

	// Per-thread issue state, struct-of-arrays (see the type comment).
	active  uint8 // bit t: thread t has an in-flight instruction
	started uint8 // bit t: some part of it issued in an earlier cycle
	kind    [MaxThreads]issueKind
	// live[t] is the bitmask of clusters with unissued demand; loads[t],
	// stores[t] and comm[t] mark which of them hold a load, a store or a
	// send/recv.
	live, loads, stores, comm [MaxThreads]uint8
	// storeBuf[t] is the bitmask of clusters whose store was split-issued
	// into the memory delay buffer and is still awaiting commit at the last
	// part (Section V-B / V-D).
	storeBuf [MaxThreads]uint8
	// ops[t] holds the instruction's op count per cluster, one byte each.
	ops [MaxThreads]uint64
	// rem[t][c] is the unissued demand at cluster c as lanes; it is
	// meaningful only where live[t] has bit c.
	rem [MaxThreads][isa.MaxClusters]uint64

	// The execution packet being assembled this cycle.
	claimed uint8                   // clusters holding some thread's operations
	free    [isa.MaxClusters]uint64 // unclaimed resources as lanes (operation merge)

	prio Rotator
}

// NewEngine builds an issue engine. It returns an error for invalid
// geometry or a technique combination the paper rules out.
func NewEngine(geom isa.Geometry, tech Technique, threads int) (*Engine, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	if threads <= 0 || threads > MaxThreads {
		return nil, fmt.Errorf("core: thread count %d out of range [1,%d]", threads, MaxThreads)
	}
	e := &Engine{
		geom:          geom,
		tech:          tech,
		nt:            threads,
		clusters:      geom.Clusters,
		clusterMask:   uint8(1<<uint(geom.Clusters) - 1),
		threadMask:    uint8(1<<uint(threads) - 1),
		opsMask:       1<<(8*uint(geom.Clusters)) - 1, // all ones at 8 clusters: 1<<64 is 0
		commDowngrade: tech.Split != SplitNone && tech.Comm == CommNoSplit,
		opMerge:       tech.Merge == MergeOperation,
		prio:          NewRotator(threads),
	}
	for i := range e.threadOf {
		e.threadOf[i] = uint8(i % threads)
	}
	switch {
	case tech.Merge == MergeCluster:
		e.wholeKind = kindWholeCM
		e.loadKind = kindWholeCM
		if tech.Split == SplitCluster {
			e.loadKind = kindSplitCM
		}
	default:
		e.wholeKind = kindWholeOM
		switch tech.Split {
		case SplitNone:
			e.loadKind = kindWholeOM
		case SplitCluster:
			e.loadKind = kindSplitOM
		default:
			e.loadKind = kindOpSplit
		}
	}
	// A demand lane holds at most 255, so capping a resource at laneMax
	// changes no fit.
	lane := func(n int) uint64 { return uint64(min(n, laneMax)) }
	word := lane(geom.IssueWidth) | lane(geom.ALUs)<<16 | lane(geom.Muls)<<32 | lane(geom.MemUnits)<<48
	for c := 0; c < geom.Clusters; c++ {
		e.capacity[c] = word
	}
	return e, nil
}

// Geometry returns the machine geometry.
func (e *Engine) Geometry() isa.Geometry { return e.geom }

// Technique returns the configured multithreading technique.
func (e *Engine) Technique() Technique { return e.tech }

// Threads returns the number of hardware contexts.
func (e *Engine) Threads() int { return e.nt }

// Active reports whether thread t has an in-flight instruction.
func (e *Engine) Active(t int) bool { return e.active&(1<<uint(t)) != 0 }

// ActiveMask returns the bitmask of threads with in-flight instructions.
func (e *Engine) ActiveMask() uint8 { return e.active }

// Started reports whether thread t's in-flight instruction has already
// issued some part (and therefore must not be abandoned on context switch).
func (e *Engine) Started(t int) bool {
	bit := uint8(1) << uint(t)
	return e.active&bit != 0 && e.started&bit != 0
}

// Remaining returns the unissued demand of thread t at cluster c. Under
// operation split a bundle keeps its load/store flag only while a memory
// operation remains and its comm flag only while an ALU operation does.
func (e *Engine) Remaining(t, c int) isa.BundleDemand {
	bit := uint8(1) << uint(c)
	if e.live[t]&bit == 0 {
		return isa.BundleDemand{}
	}
	w := e.rem[t][c]
	return isa.BundleDemand{
		Ops: uint8(w), ALU: uint8(w >> 16), Mul: uint8(w >> 32), Mem: uint8(w >> 48),
		Load: e.loads[t]&bit != 0, Stor: e.stores[t]&bit != 0, Comm: e.comm[t]&bit != 0,
	}
}

// Load hands thread t its next VLIW instruction, un-renamed. The caller
// must only call it when the thread has no in-flight instruction.
func (e *Engine) Load(t int, d isa.InstrDemand) {
	e.LoadFrom(t, &d, d.Summary(), 0)
}

// LoadFrom is the engine's load path. s must be d's Summary (producers
// precompute it; see synth.TInst); bits at or above the cluster count are
// ignored. by in [0, Clusters) is the cluster renaming: raw bundle c
// issues on cluster (c+by) mod Clusters, so Remaining, ThreadResult and
// the packet all see renamed clusters. Every bundle must have Ops =
// ALU+Mul+Mem. d is read, never retained.
func (e *Engine) LoadFrom(t int, d *isa.InstrDemand, s isa.Summary, by int) {
	bit := uint8(1) << uint(t)
	if e.active&bit != 0 {
		panic("core: Load on thread with in-flight instruction")
	}
	e.active |= bit
	e.started &^= bit
	e.storeBuf[t] = 0
	// Lower the split decision once per instruction: under NS, an
	// instruction containing send/recv must issue whole (Section V-E).
	kind := e.loadKind
	if d.HasComm && e.commDowngrade {
		kind = e.wholeKind
	}
	e.kind[t] = kind

	n, u := uint(e.clusters), uint(by)
	live := s.Live & e.clusterMask
	e.live[t] = e.rename(live, u)
	e.loads[t] = e.rename(s.Loads&live, u)
	e.stores[t] = e.rename(s.Stores&live, u)
	e.comm[t] = e.rename(s.Comm&live, u)
	// Shift counts are masked so the compiler emits bare shifts; the one
	// count that reaches the width (by 0 at 8 clusters) then shifts by 0,
	// which gives the same value.
	ops := s.Ops & e.opsMask
	e.ops[t] = (ops<<(8*u&63) | ops>>(8*(n-u)&63)) & e.opsMask
	rem := &e.rem[t]
	r := u
	for c := uint(0); c < n; c++ {
		rem[r&(isa.MaxClusters-1)] = lanes(&d.B[c&(isa.MaxClusters-1)]) & -uint64(live>>(c&7)&1)
		if r++; r == n {
			r = 0
		}
	}
}

// rename renames the clusters of m, a cluster mask: bit c moves to bit
// (c+by) mod Clusters. by is below Clusters (see LoadFrom's shifts).
func (e *Engine) rename(m uint8, by uint) uint8 {
	return (m<<(by&7) | m>>((uint(e.clusters)-by)&7)) & e.clusterMask
}

// Cycle assembles one execution packet. ready[t] gates which threads may
// issue this cycle (false models fetch stalls, cache-miss stalls and branch
// penalties). Threads are considered in round-robin rotated priority order;
// the highest-priority thread is always selected in its entirety (an empty
// packet never collides with it).
func (e *Engine) Cycle(ready *[MaxThreads]bool) CycleResult {
	var res CycleResult
	e.CycleInto(ready, &res)
	return res
}

// CycleInto is Cycle writing into caller-owned scratch so a simulation
// loop allocates nothing per cycle. Entries for threads [0,Threads) and
// clusters [0,Clusters) are overwritten; entries beyond them are left
// unspecified and must not be read.
func (e *Engine) CycleInto(ready *[MaxThreads]bool, res *CycleResult) {
	mask := uint8(0)
	for t := 0; t < e.nt; t++ {
		if ready[t] {
			mask |= 1 << uint(t)
		}
	}
	e.CycleMask(mask, res)
}

// CycleMask is the bitmask form of CycleInto and the engine's hot path:
// ready is the bitmask of threads that may issue this cycle. An all-stalled
// cycle (no active ready thread) reduces to the priority rotation, with no
// per-thread work at all — exactly the state SkipCycles folds when the
// simulator jumps over a run of such cycles.
func (e *Engine) CycleMask(ready uint8, res *CycleResult) {
	res.Issued = 0
	res.Ops = 0
	res.Threads = 0
	base := e.prio.base
	e.prio.advance(1)
	var memOps, commits uint64 // per-cluster counts, one byte each
	if avail := e.active & ready; avail != 0 {
		e.claimed = 0
		if e.opMerge {
			e.free = e.capacity
		}
		// Visit the available threads in priority order base, base+1, ...
		// (mod Threads): avail rotated right by base.
		nt := uint(e.nt)
		for m := (avail>>uint(base) | avail<<(nt-uint(base))) & e.threadMask; m != 0; m &= m - 1 {
			t := int(e.threadOf[base+bits.TrailingZeros8(m)]) & (MaxThreads - 1)
			tr := &res.Thread[t]
			switch e.kind[t] {
			case kindWholeCM:
				e.issueWholeCM(t, tr)
			case kindSplitCM:
				e.issueSplitCM(t, tr)
			case kindWholeOM:
				e.issueWholeOM(t, tr)
			case kindSplitOM:
				e.issueSplitOM(t, tr)
			default:
				e.issueOpSplit(t, tr)
			}
			// got: some part issued; fin: it was the last part (commit
			// delayed stores, last-part stores take the memory port at
			// issue time, free the context); spl: the instruction stays
			// split-issued (its stores wait in the delay buffer). Each is
			// 0 or 1.
			got := cond.Bit[uint8](tr.Ops != 0)
			fin := got & cond.Bit[uint8](e.live[t] == 0)
			spl := got ^ fin
			tr.LastPart = fin != 0
			tr.Split = spl != 0
			res.Issued |= got << uint(t)
			res.Ops += tr.Ops
			res.Threads += int(got)
			memOps += byteOnes[tr.LoadsAt] + byteOnes[tr.StoresAt&-fin]
			commits += byteOnes[e.storeBuf[t]&-fin]
			e.storeBuf[t] |= tr.StoresAt & -spl
			e.active &^= fin << uint(t)
			e.started = e.started&^(fin<<uint(t)) | spl<<uint(t)
		}
	}
	binary.LittleEndian.PutUint64(res.MemOps[:], memOps)
	binary.LittleEndian.PutUint64(res.Commits[:], commits)
}

// SkipCycles accounts n issue cycles during which no thread was ready: it
// is exactly equivalent to n Cycle calls with an all-false ready mask (the
// priority rotation advances; no other engine state can change), folded
// into one step. The simulator's stall fast-forward uses it to jump over
// dead cycles.
func (e *Engine) SkipCycles(n int64) {
	if n > 0 {
		e.prio.advance(n)
	}
}

// issued fills tr for the clusters in issue, which issue their whole
// remaining bundles.
func (e *Engine) issued(t int, tr *ThreadResult, issue uint8) {
	e.live[t] &^= issue
	tr.Ops = sumBytes(e.ops[t] & (byteOnes[issue] * 0xff))
	tr.Clusters = issue
	tr.LoadsAt = issue & e.loads[t]
	tr.StoresAt = issue & e.stores[t]
}

// issueWholeCM issues thread t's instruction whole under cluster-
// granularity merging (CSMT): all of it when none of its clusters is
// claimed yet, else nothing.
func (e *Engine) issueWholeCM(t int, tr *ThreadResult) {
	live := e.live[t]
	issue := live & -cond.Bit[uint8](live&e.claimed == 0)
	e.claimed |= issue
	e.issued(t, tr, issue)
}

// issueSplitCM issues whichever whole bundles of thread t's instruction
// land on clusters no other thread claimed this cycle (the paper's CCSI):
// operations within a bundle stay together, but bundles of one
// instruction may issue in different cycles.
func (e *Engine) issueSplitCM(t int, tr *ThreadResult) {
	issue := e.live[t] &^ e.claimed
	e.claimed |= issue
	e.issued(t, tr, issue)
}

// issueWholeOM issues thread t's instruction whole under operation-
// granularity merging (SMT): all of it when every cluster's free lanes
// cover its bundle (the AND across clusters in Figure 7(a)), else
// nothing. Clusters without demand hold zero lanes and always fit.
func (e *Engine) issueWholeOM(t int, tr *ThreadResult) {
	rem := &e.rem[t]
	var short uint64
	for c := 0; c < e.clusters; c++ {
		short |= ^((e.free[c] | guards) - rem[c])
	}
	fits := cond.Bit[uint8](short&guards == 0)
	for c := 0; c < e.clusters; c++ {
		e.free[c] -= rem[c] & -uint64(fits)
	}
	e.issued(t, tr, e.live[t]&-fits)
}

// issueSplitOM is cluster-level split with operation-granularity
// collision detection (COSI): a bundle joins a cluster whenever issue
// slots and functional units suffice.
func (e *Engine) issueSplitOM(t int, tr *ThreadResult) {
	rem := &e.rem[t]
	live := e.live[t]
	var issue uint8
	for c := 0; c < e.clusters; c++ {
		x := (e.free[c] | guards) - rem[c]
		ok := cond.Bit[uint8](x&guards == guards) & (live >> uint(c) & 1)
		e.free[c] -= rem[c] & -uint64(ok)
		issue |= ok << uint(c)
	}
	e.issued(t, tr, issue)
}

// issueOpSplit issues as many individual operations of thread t's
// instruction as the packet has room for (prior work; requires
// superscalar-like hardware). At each cluster it takes the largest part
// of the remaining bundle that fits, scarce units first: memory, then
// multiplier, then ALU, within the free issue slots.
func (e *Engine) issueOpSplit(t int, tr *ThreadResult) {
	rem := &e.rem[t]
	live, loads, stores, comm := e.live[t], e.loads[t], e.stores[t], e.comm[t]
	var issue, loadsAt, storesAt uint8
	ops := 0
	for c := 0; c < e.clusters; c++ {
		r, f := rem[c], e.free[c]
		slots := f & laneMask
		m := min(r>>48, f>>48, slots)
		slots -= m
		mu := min(r>>32&laneMask, f>>32&laneMask, slots)
		slots -= mu
		a := min(r>>16&laneMask, f>>16&laneMask, slots)
		n := m + mu + a
		take := n | a<<16 | mu<<32 | m<<48
		e.free[c] = f - take
		r -= take
		rem[c] = r
		ops += int(n)
		bit := uint8(1) << uint(c)
		got := -cond.Bit[uint8](n != 0) & bit
		mem := -cond.Bit[uint8](m != 0) & bit
		issue |= got
		loadsAt |= mem & loads
		storesAt |= mem & stores
		// A bundle that issued part of itself keeps its load/store flag
		// only while a memory operation remains, its comm flag only while
		// an ALU operation does, and its live bit only while any does.
		noMem := got & -cond.Bit[uint8](r>>48 == 0)
		loads &^= noMem
		stores &^= noMem
		comm &^= got & -cond.Bit[uint8](r>>16&laneMask == 0)
		live &^= got & -cond.Bit[uint8](r&laneMask == 0)
	}
	e.live[t], e.loads[t], e.stores[t], e.comm[t] = live, loads, stores, comm
	tr.Ops = ops
	tr.Clusters = issue
	tr.LoadsAt = loadsAt
	tr.StoresAt = storesAt
}
