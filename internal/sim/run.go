package sim

import (
	"context"
	"fmt"
	"math/bits"

	"vexsmt/internal/cond"
	"vexsmt/internal/core"
	"vexsmt/internal/isa"
	"vexsmt/internal/rng"
	"vexsmt/internal/stats"
	"vexsmt/internal/synth"
)

// The run loop is organized as three pipeline phases per cycle — fetch,
// issue, commit — plus the scheduling bookkeeping (warmup, timeslices,
// memory-port stalls) around them. All per-cycle scratch lives in runState
// so a cycle allocates nothing; simulators share zero mutable state, so
// any number of them may run on concurrent goroutines.
//
// The loop is event-driven around a per-context wake-up queue: every
// hardware context owns a computed wake-up cycle (DCache-miss stalls,
// ICache fetch stalls, taken-branch penalties, timeslice waits, and the
// wait for the context's own issue slot under interleaved multithreading
// are all computable at the point they begin). nextEventCycle takes the
// queue minimum — capped at timeslice boundaries and cancellation polls —
// and the loop jumps straight to it, folding the skipped cycles into the
// counters and the engine's priority rotation in one step. Unlike a
// global all-stalled check, the queue jumps even when some contexts are
// runnable: under IMT a runnable thread still leaves the cycles between
// its issue slots provably dead. Completed runs are bit-identical to the
// one-iteration-per-cycle reference loop (Config.ReferenceLoop), which
// the differential tests in internal/cosim machine-check.
//
// The per-cycle path never branches on a simulated random outcome to
// choose a value. Which way of a simulated cache set hits, whether a
// generated memory operation streams, whether a bundle collides, whether
// a load misses or a branch is taken or mispredicted: the host cannot
// predict these by construction, so they enter the state as masks, flag
// bits and conditional moves (cache.Cache.Access, synth.Generator's
// address draws, core.Engine's issue routines, stall below). A branch is
// left only where one side does work the other skips altogether, such
// as retiring an instruction or deferring an engine load behind an
// ICache miss. Test-only reference models in internal/cache (true LRU),
// internal/synth and internal/core (the branching originals) hold each
// lowering to the behaviour it replaced.

// runState holds one run's bookkeeping and reusable per-cycle buffers.
type runState struct {
	wq         wakeQueue        // per-context wake-up event queue
	res        core.CycleResult // engine scratch, rewritten every cycle
	maxCycles  int64
	sliceEnd   int64
	ctxCheckAt int64 // next cycle at which ctx.Err() is polled
	ctxEvery   int64 // cancellation poll interval in cycles
	warming    bool
	done       bool
}

// cancelCheckCycles bounds the cancellation poll interval when timeslicing
// is disabled: one check every 64K cycles keeps the hot loop at a single
// integer compare per cycle while still honoring cancellation promptly.
const cancelCheckCycles = 1 << 16

// Run executes the experiment and returns the counters.
func (s *Simulator) Run() (*stats.Run, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: ctx.Err() is polled once
// per timeslice (or every 64K cycles when timeslicing is off), so a cancelled
// run returns within one timeslice with the counters accumulated so far and
// the context's error. Cancellation never perturbs determinism — a run that
// completes did exactly the same work it would have done under Run.
func (s *Simulator) RunContext(ctx context.Context) (*stats.Run, error) {
	s.beginRun()
	fast := !s.cfg.ReferenceLoop
	// Jump-check policy: attempting a jump costs a wake-up-queue rebuild,
	// so it runs lazily, only on the iteration right after an empty cycle.
	// A dead stretch always announces itself with one empty cycle — a cycle
	// where nothing issues — so at most one dead cycle per stretch executes
	// through the phases before the queue folds the rest into a jump, while
	// productive cycles (the expensive ones) never pay for a rebuild. The
	// policy is bit-identical by construction: a forgone jump just executes
	// dead cycles one at a time, exactly like the reference loop.
	tryJump := fast
	for cycle := int64(0); ; cycle++ {
		// End of warmup: discard counters, keep caches and pipeline state.
		if s.st.warming && s.run.Instrs >= s.cfg.WarmupInstrs {
			s.endWarmup()
		}
		if cycle >= s.st.maxCycles {
			s.finish()
			return &s.run, fmt.Errorf("sim: exceeded %d cycles without reaching the instruction limit", s.st.maxCycles)
		}
		if cycle >= s.st.ctxCheckAt {
			if err := ctx.Err(); err != nil {
				s.finish()
				return &s.run, err
			}
			s.st.ctxCheckAt = cycle + s.st.ctxEvery
		}
		s.expireTimeslice(cycle)

		if tryJump {
			tryJump = false // re-armed by the next empty cycle
			if next := s.nextEventCycle(cycle); next > cycle {
				// No context can fetch, load or issue before next: each
				// skipped cycle would have run the three phases to no effect
				// beyond one empty machine cycle and one priority-rotation
				// step. Fold them all in one jump.
				skip := next - cycle
				s.run.Cycles += skip
				s.run.EmptyCycles += skip
				s.eng.SkipCycles(skip)
				cycle = next - 1 // the loop increment lands on next
				continue
			}
		}

		s.fetchPhase(cycle)
		res := &s.st.res
		s.issuePhase(cycle, res)
		s.commitPhase(cycle, res)

		// Delayed-store memory port contention stalls the whole pipeline
		// (Section V-D, Figure 11).
		cycle += s.portStallCycles(res)

		if s.st.done {
			s.finish()
			return &s.run, nil
		}
		tryJump = fast && res.Ops == 0
	}
}

// nextEventCycle rebuilds the per-context wake-up queue and returns the
// earliest cycle at which any context can act. A return equal to cycle
// means some context can fetch, load or issue right now; a later return
// means every cycle in [cycle, next) is provably dead: the phases would
// only count an empty cycle and rotate the issue priority.
//
// A context's wake-up cycle is its stall expiry (ready), with one
// mode-dependent refinement: under interleaved multithreading a context
// whose instruction is already loaded can only issue on its own slot —
// cycles congruent to its index modulo the context count — so its wake-up
// rounds up to that slot and the loop jumps over the dead slots of other
// contexts even while this one is runnable. The jump is capped at the next
// timeslice boundary (which can wake idle contexts via the switch mask),
// the next cancellation poll, and the runaway guard, so all scheduling
// bookkeeping still happens on exactly the cycles it would have happened
// on.
func (s *Simulator) nextEventCycle(cycle int64) int64 {
	q := &s.st.wq
	horizon := s.st.maxCycles
	imt := s.cfg.Mode == ModeInterleaved
	n := int64(len(s.ctxs))
	pick := int64(0)
	if imt {
		pick = cycle % n // the cycle's issue-slot phase, computed once
	}
	for t := range s.ctxs {
		bit := uint8(1) << uint(t)
		if s.have&bit == 0 && s.ctxs[t].job == nil && s.wantSw&bit == 0 {
			q.park(t, horizon) // nothing can wake it before the next timeslice
			continue
		}
		w := s.ready[t]
		if w < cycle {
			w = cycle
		}
		if imt && s.loaded&bit != 0 {
			// Round w up to the context's own issue slot (cycles congruent
			// to t mod n), derived from the precomputed phase with small
			// adjustments: (t - w) mod n = (t - pick - (w-cycle) mod n) mod n,
			// and the inner reduction only needs a division in the rare case
			// of a loaded context stalled a full rotation or more ahead.
			d := w - cycle
			if d >= n {
				d %= n
			}
			off := int64(t) - pick - d // in [-(2n-2), n-1]
			if off < 0 {
				off += n
				if off < 0 {
					off += n
				}
			}
			w += off
		}
		q.set(t, w)
	}
	next := q.min()
	if s.cfg.TimesliceCycles > 0 && s.st.sliceEnd < next {
		next = s.st.sliceEnd
	}
	if s.st.ctxCheckAt < next {
		next = s.st.ctxCheckAt
	}
	if next < cycle {
		// A memory-port stall pushed the clock past an already-due boundary;
		// let the normal path handle this cycle.
		next = cycle
	}
	return next
}

// beginRun resets the run bookkeeping; counters and pipeline state carry
// over so the scheduling semantics match the single-pass loop exactly.
func (s *Simulator) beginRun() {
	cfg := &s.cfg
	s.st.maxCycles = cfg.MaxCycles
	if s.st.maxCycles == 0 {
		s.st.maxCycles = cfg.LimitInstrs*64 + 10_000_000
	}
	s.st.wq.reset(len(s.ctxs), s.st.maxCycles)
	s.st.sliceEnd = cfg.TimesliceCycles
	s.st.ctxEvery = cfg.TimesliceCycles
	if s.st.ctxEvery <= 0 || s.st.ctxEvery > cancelCheckCycles {
		s.st.ctxEvery = cancelCheckCycles
	}
	s.st.ctxCheckAt = s.st.ctxEvery
	s.st.warming = cfg.WarmupInstrs > 0
	s.st.done = false
}

// endWarmup discards the warmup counters, keeping caches and pipeline
// state warm.
func (s *Simulator) endWarmup() {
	s.st.warming = false
	s.run = stats.Run{}
	for _, j := range s.jobs {
		j.Executed = 0
	}
}

// expireTimeslice marks every context for replacement when its timeslice
// ends; switches happen at each context's next instruction boundary.
func (s *Simulator) expireTimeslice(cycle int64) {
	if s.cfg.TimesliceCycles > 0 && cycle >= s.st.sliceEnd {
		s.wantSw = s.allCtx
		s.st.sliceEnd += s.cfg.TimesliceCycles
	}
}

// fetchPhase advances the front end of every context that is not already
// loaded into the engine (a loaded bit implies the have bit, and such
// contexts have nothing to fetch — the same early return fetch itself
// would take).
func (s *Simulator) fetchPhase(cycle int64) {
	for m := s.allCtx &^ s.loaded; m != 0; m &= m - 1 {
		s.fetch(bits.TrailingZeros8(m), cycle)
	}
}

// issuePhase builds the ready mask branchlessly from the struct-of-arrays
// context state, applies the IMT/BMT mode restriction, and runs the
// merge/split engine for one cycle, writing the result into caller-owned
// scratch.
func (s *Simulator) issuePhase(cycle int64, res *core.CycleResult) {
	mask := uint8(0)
	for t := range s.ctxs {
		// Bit t is set when ready[t] <= cycle: the sign bit of
		// cycle-ready[t], inverted — no compare-and-branch per context.
		mask |= uint8((^uint64(cycle-s.ready[t]))>>63) << uint(t)
	}
	mask &= s.loaded
	if s.cfg.Mode != ModeSimultaneous {
		mask = s.applyMode(cycle, mask)
	}
	s.eng.CycleMask(mask, res)
}

// commitPhase accounts the cycle's results: global counters, per-thread
// split tracking, load stalls, and instruction retirement.
func (s *Simulator) commitPhase(cycle int64, res *core.CycleResult) {
	s.run.Cycles++
	s.run.EmptyCycles += cond.Bit[int64](res.Ops == 0)
	s.run.Ops += int64(res.Ops)
	s.run.MergedCycles += cond.Bit[int64](res.Threads >= 2)
	for m := res.Issued; m != 0; m &= m - 1 {
		t := bits.TrailingZeros8(m)
		tr := &res.Thread[t]
		s.wasSplit |= cond.Bit[uint8](tr.Split) << uint(t)
		s.accountLoads(t, tr, cycle)
		if tr.LastPart {
			s.retire(t, cycle)
		}
	}
}

// accountLoads charges DCache accesses for loads, which access at issue
// time and stall the thread on a miss (VEX less-than-or-equal semantics).
// LoadsAt holds renamed clusters; each maps back to its raw address slot.
func (s *Simulator) accountLoads(t int, tr *core.ThreadResult, cycle int64) {
	if s.cfg.PerfectMemory {
		return
	}
	c := &s.ctxs[t]
	for m := tr.LoadsAt; m != 0; m &= m - 1 {
		cl := bits.TrailingZeros8(m) - c.rotation
		if cl < 0 {
			cl += s.cfg.Geom.Clusters
		}
		s.run.DCacheAccesses++
		miss := 1 - cond.Bit[int64](s.dc.Access(c.ti.MemAddr[cl&(isa.MaxClusters-1)]))
		s.run.DCacheMisses += miss
		s.stall(t, miss, int64(s.cfg.DCache.MissPenalty), cycle, &s.run.MemStallCycles)
	}
}

// stall charges thread t a penalty of pen cycles from the next cycle on
// when on is 1 (and nothing when it is 0), unless it already waits
// longer; the cycles charged are added to *stalled. It branches on
// neither.
func (s *Simulator) stall(t int, on, pen, cycle int64, stalled *int64) {
	r, nr := s.ready[t], cycle+1+pen
	longer := on & cond.Bit[int64](nr > r)
	*stalled += pen * longer
	if longer != 0 { // a conditional move
		r = nr
	}
	s.ready[t] = r
}

// retire completes a VLIW instruction on its last issued part: split
// accounting, store commit, counters, branch penalty, and the run's
// termination condition.
func (s *Simulator) retire(t int, cycle int64) {
	bit := uint8(1) << uint(t)
	s.run.SplitInstrs += int64(s.wasSplit >> uint(t) & 1)
	s.wasSplit &^= bit
	c := &s.ctxs[t]
	s.commitStores(c)
	s.run.Instrs++
	c.job.Executed++
	c.job.remaining--
	s.have &^= bit
	s.loaded &^= bit
	if s.preds == nil {
		// Paper front end: every taken branch pays the fixed penalty. This
		// branchless-of-predictor path is byte-identical to the pre-bpred
		// simulator and must stay that way.
		s.stall(t, cond.Bit[int64](c.ti.Taken), int64(s.cfg.TakenBranchPenalty), cycle, &s.run.BranchStallCycles)
	} else if c.ti.IsBranch {
		// Modeled front end: the per-context predictor resolves here, at
		// retire, and mispredicts (either direction) charge the same stall
		// path the paper charges taken branches. Writing s.ready[t] is all
		// the wake-queue needs — nextEventCycle reads it directly.
		s.run.Branches++
		p := s.preds[t]
		mispredict := cond.Bit[int64](p.Predict(c.ti.PC) != c.ti.Taken)
		p.Update(c.ti.PC, c.ti.Taken)
		s.run.BranchMispredicts += mispredict
		s.stall(t, mispredict, int64(s.cfg.TakenBranchPenalty), cycle, &s.run.BranchStallCycles)
	}
	if c.job.Executed >= s.cfg.LimitInstrs {
		s.st.done = true
	}
}

// commitStores accounts the instruction's stores, which commit at the last
// part (directly or from the delay buffers). It walks the store mask
// renamed, so stores reach the DCache in ascending renamed cluster order,
// and maps each renamed cluster back to its raw address slot.
func (s *Simulator) commitStores(c *ctx) {
	if s.cfg.PerfectMemory {
		return
	}
	n := s.cfg.Geom.Clusters
	all := uint8(1<<uint(n) - 1)
	raw := c.ti.Stores & all
	for m := (raw<<uint(c.rotation) | raw>>uint(n-c.rotation)) & all; m != 0; m &= m - 1 {
		cl := bits.TrailingZeros8(m) - c.rotation
		if cl < 0 {
			cl += n
		}
		s.run.DCacheAccesses++
		s.run.DCacheMisses += 1 - cond.Bit[int64](s.dc.Access(c.ti.MemAddr[cl&(isa.MaxClusters-1)])) // write-allocate, no stall
	}
}

// portStallCycles converts delayed-store port overflow into whole-pipeline
// stall cycles and returns how far the clock must advance.
func (s *Simulator) portStallCycles(res *core.CycleResult) int64 {
	over := int64(res.MemPortOverflow(s.cfg.Geom)) // >= 0
	s.run.Cycles += over
	s.run.EmptyCycles += over
	s.run.MemPortStallCycles += over
	return over
}

// fetch advances one context's front end: context switches at instruction
// boundaries, respawn, ICache access, and engine load.
func (s *Simulator) fetch(t int, cycle int64) {
	cfg := &s.cfg
	c := &s.ctxs[t]
	bit := uint8(1) << uint(t)
	if s.have&bit != 0 {
		if s.loaded&bit == 0 && cycle >= s.ready[t] {
			s.eng.LoadFrom(t, &c.ti.Demand, c.ti.Summary, c.rotation)
			s.loaded |= bit
		}
		return
	}
	if cycle < s.ready[t] {
		return
	}
	if s.wantSw&bit != 0 {
		s.contextSwitch(t)
		s.wantSw &^= bit
	}
	if c.job == nil {
		return
	}
	// Respawn a completed benchmark (Section VI-A).
	if c.job.remaining <= 0 {
		s.respawn(c.job)
	}
	ti := s.nextInstr(c)
	c.ti = ti
	s.have |= bit
	if !cfg.PerfectMemory {
		s.run.ICacheAccesses++
		if pen := s.ic.AccessPenalty(ti.PC); pen > 0 {
			s.run.ICacheMisses++
			s.run.FetchStallCycles += int64(pen)
			s.ready[t] = cycle + int64(pen)
			return
		}
	}
	s.eng.LoadFrom(t, &ti.Demand, ti.Summary, c.rotation)
	s.loaded |= bit
}

// respawn restarts a completed benchmark with a fresh variant. The job's
// prefetch buffer is empty at this point by construction: a spawn draws
// exactly Length instructions, and the respawn check only runs once all of
// them have retired.
func (s *Simulator) respawn(j *Job) {
	j.variant++
	j.Stream.Reset(j.variant)
	j.remaining = j.Stream.Length(s.cfg.ScaleDiv)
	j.drawsLeft = j.remaining
	j.buf = j.buf[:0]
	j.bufPos = 0
	s.run.Respawns++
}

// nextInstr returns the next raw (un-renamed) trace instruction of the
// context's job. The fast path consumes the job's prefetch buffer,
// refilling it with whole basic-block-sized runs via synth.FillN — never
// drawing past the current spawn so respawn boundaries fall on exactly the
// same instruction as per-instruction fetching. The reference loop
// bypasses the buffer and draws one instruction at a time into the
// context's own slot.
func (s *Simulator) nextInstr(c *ctx) *synth.TInst {
	j := c.job
	if j.bufPos == len(j.buf) {
		if s.cfg.ReferenceLoop {
			j.Stream.Next(&c.raw)
			j.drawsLeft--
			return &c.raw
		}
		n := fetchBatch
		if int64(n) > j.drawsLeft {
			n = int(j.drawsLeft)
		}
		j.buf = j.buf[:n]
		synth.FillN(j.Stream, j.buf)
		j.drawsLeft -= int64(n)
		j.bufPos = 0
	}
	raw := &j.buf[j.bufPos]
	j.bufPos++
	return raw
}

// contextSwitch replaces the context's job with a randomly chosen waiting
// job ("replacement threads are picked at random from the workload"). The
// waiting list is a reusable buffer: switches allocate nothing.
func (s *Simulator) contextSwitch(t int) {
	waiting := s.waiting[:0]
	for _, j := range s.jobs {
		running := false
		for i := range s.ctxs {
			if s.ctxs[i].job == j {
				running = true
				break
			}
		}
		if !running {
			waiting = append(waiting, j)
		}
	}
	if len(waiting) == 0 {
		return // pool fits the contexts; keep running the same job
	}
	// Common random numbers: the pick depends only on (seed, switch index),
	// so different techniques see the same replacement schedule and their
	// IPC comparison is paired, which the small-scale runs need for
	// stability. (Paper-scale runs are long enough not to care.)
	s.switchCount++
	pick := rng.Draw(s.cfg.Seed*0x5851f42d+s.switchCount, len(waiting))
	s.ctxs[t].job = waiting[pick]
	s.run.ContextSwitches++
}

// applyMode restricts the ready mask for the IMT/BMT ablation modes.
func (s *Simulator) applyMode(cycle int64, mask uint8) uint8 {
	switch s.cfg.Mode {
	case ModeInterleaved:
		return mask & (1 << uint(cycle%int64(s.cfg.Threads)))
	case ModeBlocked:
		// Stay on the current thread while it is ready; otherwise rotate to
		// the next ready one.
		if mask&(1<<uint(s.bmtCur)) == 0 {
			for i := 1; i <= s.cfg.Threads; i++ {
				cand := (s.bmtCur + i) % s.cfg.Threads
				if mask&(1<<uint(cand)) != 0 {
					s.bmtCur = cand
					break
				}
			}
		}
		return mask & (1 << uint(s.bmtCur))
	}
	return mask
}

func (s *Simulator) finish() {
	s.run.IssueSlots = s.run.Cycles * int64(s.cfg.Geom.TotalIssueWidth())
}
