package core

import (
	"testing"

	"vexsmt/internal/isa"
	"vexsmt/internal/rng"
)

// This file carries a reference copy of the issue engine as it existed
// before the hot path was lowered into precompiled decision state (per-Load
// split modes, live-cluster masks, epoch-stamped packet scratch, the
// priority order table and SkipCycles). The reference consults the
// Technique policy struct on every cycle, exactly like the original code;
// the property tests drive both engines in lockstep over randomized
// streams, geometries and ready masks and require bit-identical
// CycleResults. Together with the cosim functional equivalence suite this
// machine-checks that the optimization changed no observable behavior.

type refThreadIssue struct {
	active        bool
	started       bool
	demand        isa.InstrDemand
	remaining     [isa.MaxClusters]isa.BundleDemand
	storeBuffered [isa.MaxClusters]bool
}

type refEngine struct {
	geom   isa.Geometry
	tech   Technique
	nt     int
	state  [MaxThreads]refThreadIssue
	packet *Packet
	prio   Rotator
	order  [MaxThreads]int
}

func newRefEngine(geom isa.Geometry, tech Technique, threads int) *refEngine {
	return &refEngine{
		geom:   geom,
		tech:   tech,
		nt:     threads,
		packet: NewPacket(geom),
		prio:   NewRotator(threads),
	}
}

func (e *refEngine) Active(t int) bool { return e.state[t].active }

func (e *refEngine) Load(t int, d isa.InstrDemand) {
	st := &e.state[t]
	if st.active {
		panic("refEngine: Load on busy thread")
	}
	st.active = true
	st.started = false
	st.demand = d
	st.remaining = d.B
	for c := range st.storeBuffered {
		st.storeBuffered[c] = false
	}
}

func (e *refEngine) splittable(st *refThreadIssue) bool {
	if e.tech.Split == SplitNone {
		return false
	}
	if st.demand.HasComm && e.tech.Comm == CommNoSplit {
		return false
	}
	return true
}

func (e *refEngine) Cycle(ready *[MaxThreads]bool) CycleResult {
	var res CycleResult
	e.packet.Reset()
	e.prio.Order(&e.order)
	for i := 0; i < e.nt; i++ {
		t := e.order[i]
		st := &e.state[t]
		if !st.active || !ready[t] {
			continue
		}
		tr := e.tryIssue(st)
		if tr.Ops == 0 {
			continue
		}
		res.Thread[t] = tr
		res.Issued |= 1 << uint(t)
		res.Ops += tr.Ops
		res.Threads++
		if tr.LastPart {
			for c := 0; c < e.geom.Clusters; c++ {
				if st.storeBuffered[c] {
					res.Commits[c]++
				}
			}
			st.active = false
			st.started = false
		} else {
			st.started = true
		}
	}
	for t := 0; t < e.nt; t++ {
		tr := &res.Thread[t]
		if tr.Ops == 0 {
			continue
		}
		for c := 0; c < e.geom.Clusters; c++ {
			bit := uint8(1) << uint(c)
			if tr.LoadsAt&bit != 0 {
				res.MemOps[c]++
			}
			if tr.LastPart && tr.StoresAt&bit != 0 {
				res.MemOps[c]++
			}
		}
	}
	return res
}

func (e *refEngine) tryIssue(st *refThreadIssue) ThreadResult {
	var tr ThreadResult
	if !e.splittable(st) {
		if !e.packet.FitsWhole(&st.remaining, e.tech.Merge) {
			return tr
		}
		for c := 0; c < e.geom.Clusters; c++ {
			d := st.remaining[c]
			if d.IsEmpty() {
				continue
			}
			e.packet.AddBundle(c, d)
			tr.Ops += int(d.Ops)
			tr.Clusters |= 1 << uint(c)
			if d.Load {
				tr.LoadsAt |= 1 << uint(c)
			}
			if d.Stor {
				tr.StoresAt |= 1 << uint(c)
			}
			st.remaining[c] = isa.BundleDemand{}
		}
		tr.LastPart = tr.Ops > 0
		return tr
	}

	switch e.tech.Split {
	case SplitCluster:
		done := true
		for c := 0; c < e.geom.Clusters; c++ {
			d := st.remaining[c]
			if d.IsEmpty() {
				continue
			}
			if !e.packet.FitsBundle(c, d, e.tech.Merge) {
				done = false
				continue
			}
			e.packet.AddBundle(c, d)
			tr.Ops += int(d.Ops)
			tr.Clusters |= 1 << uint(c)
			if d.Load {
				tr.LoadsAt |= 1 << uint(c)
			}
			if d.Stor {
				tr.StoresAt |= 1 << uint(c)
			}
			st.remaining[c] = isa.BundleDemand{}
		}
		tr.LastPart = done && tr.Ops > 0
		tr.Split = !done && tr.Ops > 0
		if tr.Split {
			e.markBufferedStores(st, tr.StoresAt)
		}
		return tr

	case SplitOperation:
		done := true
		for c := 0; c < e.geom.Clusters; c++ {
			d := st.remaining[c]
			if d.IsEmpty() {
				continue
			}
			take := e.packet.TakeOps(c, d)
			if take.IsEmpty() {
				done = false
				continue
			}
			e.packet.AddBundle(c, take)
			tr.Ops += int(take.Ops)
			tr.Clusters |= 1 << uint(c)
			if take.Load {
				tr.LoadsAt |= 1 << uint(c)
			}
			if take.Stor {
				tr.StoresAt |= 1 << uint(c)
			}
			st.remaining[c] = subDemand(d, take)
			if !st.remaining[c].IsEmpty() {
				done = false
			}
		}
		tr.LastPart = done && tr.Ops > 0
		tr.Split = !done && tr.Ops > 0
		if tr.Split {
			e.markBufferedStores(st, tr.StoresAt)
		}
		return tr
	}
	return tr
}

func (e *refEngine) markBufferedStores(st *refThreadIssue, storesAt uint8) {
	for c := 0; c < e.geom.Clusters; c++ {
		if storesAt&(1<<uint(c)) != 0 {
			st.storeBuffered[c] = true
		}
	}
}

// equivGeometries are the shapes the lockstep tests sweep: the paper's
// machine plus wide/narrow cluster splits of the same total issue width.
func equivGeometries() []isa.Geometry {
	return []isa.Geometry{
		isa.ST200x4,
		{Clusters: 2, IssueWidth: 8, ALUs: 8, Muls: 4, MemUnits: 2},
		{Clusters: 8, IssueWidth: 2, ALUs: 2, Muls: 1, MemUnits: 1},
		{Clusters: 1, IssueWidth: 4, ALUs: 4, Muls: 2, MemUnits: 1},
	}
}

// TestCycleMatchesReference drives the lowered engine and the reference
// implementation in lockstep: identical Loads, identical (random) ready
// masks, and a bit-identical CycleResult required every cycle, across all
// eight techniques, several geometries and thread counts.
func TestCycleMatchesReference(t *testing.T) {
	r := rng.New(0xfa57)
	for _, g := range equivGeometries() {
		for _, tech := range AllTechniques() {
			for _, nt := range []int{1, 2, 4} {
				fast, err := NewEngine(g, tech, nt)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefEngine(g, tech, nt)
				streams := make([][]isa.InstrDemand, nt)
				next := make([]int, nt)
				for th := range streams {
					streams[th] = randomStream(r, g, 120, 0.25)
				}
				var ready [MaxThreads]bool
				for cycle := 0; cycle < 50_000; cycle++ {
					done := true
					for th := 0; th < nt; th++ {
						if fast.Active(th) != ref.Active(th) {
							t.Fatalf("%s %dC %dT cycle %d: Active(%d) diverged",
								tech.Name(), g.Clusters, nt, cycle, th)
						}
						if !fast.Active(th) && next[th] < len(streams[th]) {
							d := streams[th][next[th]]
							fast.Load(th, d)
							ref.Load(th, d)
							next[th]++
						}
						if fast.Active(th) {
							done = false
						}
					}
					if done {
						break
					}
					for th := 0; th < nt; th++ {
						ready[th] = r.Bool(0.8)
					}
					got := fast.Cycle(&ready)
					want := ref.Cycle(&ready)
					if got != want {
						t.Fatalf("%s %dC %dT cycle %d diverged:\n got %+v\nwant %+v",
							tech.Name(), g.Clusters, nt, cycle, got, want)
					}
				}
			}
		}
	}
}

// TestSkipCyclesMatchesDeadCycles proves SkipCycles(k) equals k Cycle calls
// with an all-false ready mask: same rotation state afterwards, and
// identical results for every subsequent cycle.
func TestSkipCyclesMatchesDeadCycles(t *testing.T) {
	r := rng.New(0x51c1e5)
	for _, tech := range AllTechniques() {
		fast, err := NewEngine(isa.ST200x4, tech, 4)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefEngine(isa.ST200x4, tech, 4)
		streams := make([][]isa.InstrDemand, 4)
		next := make([]int, 4)
		for th := range streams {
			streams[th] = randomStream(r, isa.ST200x4, 80, 0.2)
		}
		var ready, dead [MaxThreads]bool
		for cycle := 0; cycle < 20_000; cycle++ {
			done := true
			for th := 0; th < 4; th++ {
				if !fast.Active(th) && next[th] < len(streams[th]) {
					d := streams[th][next[th]]
					fast.Load(th, d)
					ref.Load(th, d)
					next[th]++
				}
				if fast.Active(th) {
					done = false
				}
			}
			if done {
				break
			}
			if r.Bool(0.3) {
				// Fast-forward a random stall: the reference burns the dead
				// cycles one by one.
				k := int64(1 + r.Intn(1000))
				fast.SkipCycles(k)
				for i := int64(0); i < k; i++ {
					ref.Cycle(&dead)
				}
			}
			for th := 0; th < 4; th++ {
				ready[th] = r.Bool(0.7)
			}
			got := fast.Cycle(&ready)
			want := ref.Cycle(&ready)
			if got != want {
				t.Fatalf("%s cycle %d diverged after skip:\n got %+v\nwant %+v",
					tech.Name(), cycle, got, want)
			}
		}
	}
}

// FuzzEngineMatchesReference drives the engine's load path (LoadFrom with
// a random rotation) and refEngine (loaded with the rotated copy) in
// lockstep from one fuzzed seed: any technique, 1–8 clusters, 1–8
// threads, per-cluster resources drawn from the seed, demands up to one
// past each resource (so some bundles never fit), random ready masks and
// dead-cycle skips. Every cycle's defined result, every thread's Active
// and Started, and every Remaining must match.
func FuzzEngineMatchesReference(f *testing.F) {
	for i := range AllTechniques() {
		f.Add(uint8(i), uint8(3), uint8(3), uint64(i)*0x9e37)
	}
	f.Add(uint8(6), uint8(7), uint8(7), uint64(0x51d1))
	f.Add(uint8(1), uint8(0), uint8(0), uint64(7))
	f.Fuzz(func(t *testing.T, techIdx, clusters, threads uint8, seed uint64) {
		techs := AllTechniques()
		tech := techs[int(techIdx)%len(techs)]
		r := rng.New(seed)
		g := isa.Geometry{
			Clusters:   1 + int(clusters)%isa.MaxClusters,
			IssueWidth: 1 + r.Intn(8),
			ALUs:       1 + r.Intn(8),
			Muls:       r.Intn(4),
			MemUnits:   r.Intn(3),
		}
		nt := 1 + int(threads)%MaxThreads
		fast, err := NewEngine(g, tech, nt)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefEngine(g, tech, nt)
		n := g.Clusters
		var res CycleResult
		var dead [MaxThreads]bool
		for cycle := 0; cycle < 2000; cycle++ {
			for th := 0; th < nt; th++ {
				if !fast.Active(th) {
					d := fuzzDemand(r, g)
					by := r.Intn(n)
					fast.LoadFrom(th, &d, d.Summary(), by)
					ref.Load(th, d.Rotate(by, n))
				}
			}
			if r.Bool(0.1) {
				k := int64(1 + r.Intn(5))
				fast.SkipCycles(k)
				for i := int64(0); i < k; i++ {
					ref.Cycle(&dead)
				}
			}
			readyMask := uint8(r.Uint64())
			var ready [MaxThreads]bool
			for th := range ready {
				ready[th] = readyMask&(1<<uint(th)) != 0
			}
			fast.CycleMask(readyMask, &res)
			want := ref.Cycle(&ready)
			if !sameCycle(&res, &want, nt, n) {
				t.Fatalf("%s %v %dT cycle %d:\n got %+v\nwant %+v", tech.Name(), g, nt, cycle, res, want)
			}
			for th := 0; th < nt; th++ {
				st := &ref.state[th]
				if fast.Active(th) != st.active || fast.Started(th) != (st.active && st.started) {
					t.Fatalf("%s %v %dT cycle %d: thread %d active/started %v/%v, reference %v/%v",
						tech.Name(), g, nt, cycle, th, fast.Active(th), fast.Started(th), st.active, st.started)
				}
				for c := 0; c < isa.MaxClusters; c++ {
					if got := fast.Remaining(th, c); got != st.remaining[c] {
						t.Fatalf("%s %v %dT cycle %d: Remaining(%d, %d) = %+v, reference %+v",
							tech.Name(), g, nt, cycle, th, c, got, st.remaining[c])
					}
				}
			}
		}
	})
}

// fuzzDemand draws an instruction whose bundles may exceed each per-
// cluster resource by one, with Ops = ALU+Mul+Mem, a load or store flag
// exactly on bundles with a memory operation, and send/recv on some
// bundles with an ALU operation.
func fuzzDemand(r *rng.Rand, g isa.Geometry) isa.InstrDemand {
	var d isa.InstrDemand
	for c := 0; c < g.Clusters; c++ {
		if r.Bool(0.4) {
			continue
		}
		b := isa.BundleDemand{
			ALU: uint8(r.Intn(g.ALUs + 2)),
			Mul: uint8(r.Intn(g.Muls + 2)),
			Mem: uint8(r.Intn(g.MemUnits + 2)),
		}
		b.Ops = b.ALU + b.Mul + b.Mem
		if b.Mem > 0 {
			b.Load = r.Bool(0.6)
			b.Stor = !b.Load
		}
		b.Comm = b.ALU > 0 && r.Bool(0.2)
		d.HasComm = d.HasComm || b.Comm
		d.B[c] = b
	}
	return d
}
