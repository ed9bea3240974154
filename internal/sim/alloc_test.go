package sim

import (
	"testing"

	"vexsmt/internal/core"
)

// TestPhasesZeroAllocs pins the zero-allocation contract of the run loop:
// once a simulator exists, the per-cycle phase functions — fetch (with
// batched trace prefetch, respawns and context switches), issue (engine
// scratch reuse) and commit (cache accounting and retirement) — must
// never touch the heap. This is what keeps thousands of concurrent cell
// simulations from fighting the garbage collector.
func TestPhasesZeroAllocs(t *testing.T) {
	for _, tech := range []core.Technique{core.CCSI(core.CommAlwaysSplit), core.SMT(), core.OOSI(core.CommNoSplit)} {
		s := runMix(t, "mmhh", tech, 4)
		s.beginRun()
		cycle := int64(0)
		allocs := testing.AllocsPerRun(20_000, func() {
			s.expireTimeslice(cycle)
			s.fetchPhase(cycle)
			s.issuePhase(cycle, &s.st.res)
			s.commitPhase(cycle, &s.st.res)
			cycle += s.portStallCycles(&s.st.res) + 1
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocs per simulated cycle, want 0", tech.Name(), allocs)
		}
	}
}

// TestFastForwardZeroAllocs covers the stall fast-forward path of the
// event-driven loop.
func TestFastForwardZeroAllocs(t *testing.T) {
	s := runMix(t, "llmm", core.CSMT(), 2)
	s.beginRun()
	cycle := int64(0)
	allocs := testing.AllocsPerRun(20_000, func() {
		if next := s.nextEventCycle(cycle); next > cycle {
			skip := next - cycle
			s.run.Cycles += skip
			s.run.EmptyCycles += skip
			s.eng.SkipCycles(skip)
			cycle = next
			return
		}
		s.fetchPhase(cycle)
		s.issuePhase(cycle, &s.st.res)
		s.commitPhase(cycle, &s.st.res)
		cycle += s.portStallCycles(&s.st.res) + 1
	})
	if allocs != 0 {
		t.Errorf("%.2f allocs per simulated cycle, want 0", allocs)
	}
}

// TestFastForwardJumpZeroAllocs covers the multi-cycle jumps of a
// mostly idle machine: two jobs on eight contexts, so six contexts are
// parked and whole-machine stalls are common.
func TestFastForwardJumpZeroAllocs(t *testing.T) {
	cfg := testConfig(core.SMT(), 8)
	profs, err := mustMix(t, "llhh").Profiles()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWorkload(cfg, profs[:2])
	if err != nil {
		t.Fatal(err)
	}
	s.beginRun()
	cycle := int64(0)
	jumps := 0
	allocs := testing.AllocsPerRun(20_000, func() {
		s.expireTimeslice(cycle)
		if next := s.nextEventCycle(cycle); next > cycle {
			skip := next - cycle
			s.run.Cycles += skip
			s.run.EmptyCycles += skip
			s.eng.SkipCycles(skip)
			cycle = next
			jumps++
			return
		}
		s.fetchPhase(cycle)
		s.issuePhase(cycle, &s.st.res)
		s.commitPhase(cycle, &s.st.res)
		cycle += s.portStallCycles(&s.st.res) + 1
	})
	if allocs != 0 {
		t.Errorf("%.2f allocs per iteration, want 0", allocs)
	}
	if jumps == 0 {
		t.Error("the run performed no jumps; the scenario does not exercise the fast-forward path")
	}
}

// TestRunZeroAllocsSteadyState measures a whole Run after a first warm
// run: construction aside, repeated runs reuse every buffer.
func TestRunZeroAllocsSteadyState(t *testing.T) {
	s := runMix(t, "llhh", core.COSI(core.CommAlwaysSplit), 4)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Run allocated %.1f per run, want 0", allocs)
	}
}
