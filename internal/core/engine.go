package core

import (
	"fmt"
	"math/bits"

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

// issueKind selects one of the specialized per-cycle issue routines: the
// merge x split policy cross-product lowered to a flat decision table
// entry at NewEngine/Load time.
type issueKind uint8

const (
	kindWhole     issueKind = iota // all remaining bundles or nothing
	kindClusterCM                  // cluster split, cluster-granularity merge (CCSI)
	kindClusterOM                  // cluster split, operation-granularity merge (COSI)
	kindOpSplit                    // operation split (OOSI)
)

// Engine is the merging hardware plus split-issue state machine. It is
// deliberately independent of fetch, caches and scheduling: the caller
// loads per-thread instruction demands and asks for one issue cycle at a
// time, passing which threads are ready (not stalled).
//
// At construction the Technique (merge policy x split policy x comm
// policy) is lowered into flat decision fields — the packet's collision
// granularity, the engine-wide split mode, the NS comm restriction and a
// precomputed priority-order table — so the per-cycle path runs on plain
// branches over precomputed state instead of consulting policy structs.
//
// Per-thread issue state is struct-of-arrays: thread membership flags are
// bitmasks over thread indices (active, started) and the per-thread fields
// (issue kind, live-cluster mask, delay-buffer mask, remaining demand) are
// flat parallel arrays, so the hot path tests and updates whole-machine
// state with bitwise operations instead of chasing per-thread structs with
// boolean fields.
type Engine struct {
	geom isa.Geometry
	tech Technique
	nt   int

	// Lowered decision state (NewEngine time).
	clusters      int
	clusterMask   uint8     // (1 << clusters) - 1
	loadKind      issueKind // issue routine for non-comm instructions
	commDowngrade bool      // NS + split: comm instructions issue whole
	// orderTab[b] is the thread priority order when the rotation base is b:
	// b, b+1 mod n, ... (Section VI-A round-robin priority).
	orderTab [MaxThreads][MaxThreads]uint8

	// Per-thread issue state, struct-of-arrays (see the type comment).
	active  uint8 // bit t: thread t has an in-flight instruction
	started uint8 // bit t: some part of it issued in an earlier cycle
	kind    [MaxThreads]issueKind
	// live[t] is the bitmask of clusters with unissued demand; it mirrors
	// remaining so the issue loops visit only clusters that still hold work.
	live [MaxThreads]uint8
	// storeBuf[t] is the bitmask of clusters whose store was split-issued
	// into the memory delay buffer and is still awaiting commit at the last
	// part (Section V-B / V-D).
	storeBuf  [MaxThreads]uint8
	remaining [MaxThreads][isa.MaxClusters]isa.BundleDemand

	packet Packet
	prio   Rotator
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
		commDowngrade: tech.Split != SplitNone && tech.Comm == CommNoSplit,
		prio:          NewRotator(threads),
	}
	switch tech.Split {
	case SplitNone:
		e.loadKind = kindWhole
	case SplitCluster:
		if tech.Merge == MergeCluster {
			e.loadKind = kindClusterCM
		} else {
			e.loadKind = kindClusterOM
		}
	default:
		e.loadKind = kindOpSplit
	}
	e.packet.init(geom, tech.Merge == MergeCluster)
	for b := 0; b < threads; b++ {
		for i := 0; i < threads; i++ {
			e.orderTab[b][i] = uint8((b + i) % threads)
		}
	}
	return e, nil
}

// Geometry returns the machine geometry.
func (e *Engine) Geometry() isa.Geometry { return e.geom }

// PacketUsed returns the resources claimed at cluster c by the most recent
// Cycle call. Intended for tests and ablation instrumentation.
func (e *Engine) PacketUsed(c int) isa.BundleDemand { return e.packet.Used(c) }

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

// Remaining returns the unissued demand of thread t at cluster c.
func (e *Engine) Remaining(t, c int) isa.BundleDemand { return e.remaining[t][c] }

// Load hands thread t its next VLIW instruction, un-renamed. The caller
// must only call it when the thread has no in-flight instruction.
func (e *Engine) Load(t int, d isa.InstrDemand) {
	e.LoadFrom(t, &d, d.UsedClusters(), 0)
}

// LoadFrom is the engine's load path. live is the mask of clusters whose
// bundle has Ops > 0; bits at or above the cluster count are ignored. by
// in [0, Clusters) is the cluster renaming: raw bundle c issues on cluster
// (c+by) mod Clusters, so Remaining, ThreadResult and the packet all see
// renamed clusters. d is read, never retained.
//
// Only live bundles are written. The rest of remaining[t] is already zero:
// NewEngine zeroes it, and an instruction retires only once every live bundle
// has issued, which leaves each at zero demand (Ops = ALU+Mul+Mem).
func (e *Engine) LoadFrom(t int, d *isa.InstrDemand, live uint8, by int) {
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
		kind = kindWhole
	}
	e.kind[t] = kind
	rem := &e.remaining[t]
	renamed := uint8(0)
	for m := live & e.clusterMask; m != 0; m &= m - 1 {
		c := bits.TrailingZeros8(m)
		r := c + by
		if r >= e.clusters {
			r -= e.clusters
		}
		rem[r&(isa.MaxClusters-1)] = d.B[c]
		renamed |= 1 << uint(r)
	}
	e.live[t] = renamed
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
// cycle (no active ready thread) reduces to the priority rotation plus the
// packet epoch bump, with no per-thread work at all — exactly the state
// SkipCycles folds when the simulator jumps over a run of such cycles.
func (e *Engine) CycleMask(ready uint8, res *CycleResult) {
	res.MemOps = [isa.MaxClusters]uint8{}
	res.Commits = [isa.MaxClusters]uint8{}
	res.Issued = 0
	res.Ops = 0
	res.Threads = 0
	e.packet.Reset()
	ord := &e.orderTab[e.prio.base]
	e.prio.advance(1)
	avail := e.active & ready
	if avail == 0 {
		return
	}
	for i := 0; i < e.nt; i++ {
		t := int(ord[i])
		bit := uint8(1) << uint(t)
		if avail&bit == 0 {
			continue
		}
		tr := &res.Thread[t]
		*tr = ThreadResult{}
		switch e.kind[t] {
		case kindWhole:
			e.issueWhole(t, tr)
		case kindClusterCM:
			e.issueClusterSplitCM(t, tr)
		case kindClusterOM:
			e.issueClusterSplitOM(t, tr)
		default:
			e.issueOpSplit(t, tr)
		}
		if tr.Ops == 0 {
			continue
		}
		res.Issued |= bit
		res.Ops += tr.Ops
		res.Threads++
		if tr.LastPart {
			// Commit delayed stores; make the context available for the
			// next instruction. Last-part stores take the memory port at
			// issue time.
			for m := e.storeBuf[t]; m != 0; m &= m - 1 {
				res.Commits[bits.TrailingZeros8(m)]++
			}
			for m := tr.StoresAt; m != 0; m &= m - 1 {
				res.MemOps[bits.TrailingZeros8(m)]++
			}
			e.active &^= bit
			e.started &^= bit
		} else {
			e.started |= bit
		}
		for m := tr.LoadsAt; m != 0; m &= m - 1 {
			res.MemOps[bits.TrailingZeros8(m)]++
		}
	}
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

// issueWhole issues thread t's instruction with whole-instruction
// semantics: all remaining bundles or nothing. (An unsplittable instruction
// always has remaining == full demand.)
func (e *Engine) issueWhole(t int, tr *ThreadResult) {
	rem := &e.remaining[t]
	live := e.live[t]
	for m := live; m != 0; m &= m - 1 {
		if !e.packet.fits(bits.TrailingZeros8(m), &rem[bits.TrailingZeros8(m)]) {
			return
		}
	}
	for m := live; m != 0; m &= m - 1 {
		c := bits.TrailingZeros8(m)
		d := &rem[c]
		e.packet.add(c, d)
		tr.Ops += int(d.Ops)
		tr.Clusters |= 1 << uint(c)
		if d.Load {
			tr.LoadsAt |= 1 << uint(c)
		}
		if d.Stor {
			tr.StoresAt |= 1 << uint(c)
		}
		rem[c] = isa.BundleDemand{}
	}
	e.live[t] = 0
	tr.LastPart = tr.Ops > 0
}

// issueClusterSplitCM issues whichever whole bundles of thread t's
// instruction land on clusters no other thread claimed this cycle (the
// paper's CCSI): operations within a bundle stay together, but bundles of
// one instruction may issue in different cycles.
func (e *Engine) issueClusterSplitCM(t int, tr *ThreadResult) {
	rem := &e.remaining[t]
	live := e.live[t]
	for m := live; m != 0; m &= m - 1 {
		c := bits.TrailingZeros8(m)
		d := &rem[c]
		if !e.packet.tryAddCM(c, d) {
			continue
		}
		tr.Ops += int(d.Ops)
		tr.Clusters |= 1 << uint(c)
		if d.Load {
			tr.LoadsAt |= 1 << uint(c)
		}
		if d.Stor {
			tr.StoresAt |= 1 << uint(c)
		}
		rem[c] = isa.BundleDemand{}
		live &^= 1 << uint(c)
	}
	e.live[t] = live
	e.finishSplit(t, tr)
}

// issueClusterSplitOM is cluster-level split with operation-granularity
// collision detection (COSI): a bundle joins a cluster whenever issue
// slots and functional units suffice.
func (e *Engine) issueClusterSplitOM(t int, tr *ThreadResult) {
	rem := &e.remaining[t]
	live := e.live[t]
	for m := live; m != 0; m &= m - 1 {
		c := bits.TrailingZeros8(m)
		d := &rem[c]
		if !e.packet.tryAddOM(c, d) {
			continue
		}
		tr.Ops += int(d.Ops)
		tr.Clusters |= 1 << uint(c)
		if d.Load {
			tr.LoadsAt |= 1 << uint(c)
		}
		if d.Stor {
			tr.StoresAt |= 1 << uint(c)
		}
		rem[c] = isa.BundleDemand{}
		live &^= 1 << uint(c)
	}
	e.live[t] = live
	e.finishSplit(t, tr)
}

// finishSplit derives the last-part/split flags shared by the split-issue
// routines and books split-issued stores into the delay buffer.
func (e *Engine) finishSplit(t int, tr *ThreadResult) {
	done := e.live[t] == 0
	tr.LastPart = done && tr.Ops > 0
	tr.Split = !done && tr.Ops > 0
	if tr.Split {
		e.storeBuf[t] |= tr.StoresAt
	}
}

// issueOpSplit issues as many individual operations of thread t's
// instruction as the packet has room for (prior work; requires
// superscalar-like hardware).
func (e *Engine) issueOpSplit(t int, tr *ThreadResult) {
	rem := &e.remaining[t]
	live := e.live[t]
	for m := live; m != 0; m &= m - 1 {
		c := bits.TrailingZeros8(m)
		d := &rem[c]
		take := e.packet.take(c, d)
		if take.IsEmpty() {
			continue
		}
		e.packet.add(c, &take)
		tr.Ops += int(take.Ops)
		tr.Clusters |= 1 << uint(c)
		if take.Load {
			tr.LoadsAt |= 1 << uint(c)
		}
		if take.Stor {
			tr.StoresAt |= 1 << uint(c)
		}
		r := subDemand(*d, take)
		rem[c] = r
		if r.IsEmpty() {
			live &^= 1 << uint(c)
		}
	}
	e.live[t] = live
	e.finishSplit(t, tr)
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
