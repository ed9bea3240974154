package cosim

import (
	"fmt"
	"testing"

	"vexsmt/internal/bpred"
	"vexsmt/internal/core"
	"vexsmt/internal/rng"
	"vexsmt/internal/sim"
	"vexsmt/internal/synth"
	"vexsmt/internal/workload"
)

// The predictor differentials extend the fast-vs-reference charter to the
// branch-predictor front end (internal/bpred): every predictor model must
// be bit-identical between the event-driven fast loop and the reference
// loop (the per-context predictors resolve at retire, where both loops
// agree on order by the existing differentials), and the default static
// configuration must be bit-identical to a configuration that predates
// the predictor axis entirely.

// TestStaticPredictorIsLegacy machine-checks the PR's central bit-identity
// claim at the simulator level: Config.Predictor "" (the pre-predictor
// spelling), "static", and noisy spellings of it all produce the same
// full counter struct — including zero branch counters, so the JSON
// export above stays byte-identical too.
func TestStaticPredictorIsLegacy(t *testing.T) {
	mix, err := workload.MixByLabel("llhh")
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mix.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range []core.Technique{core.SMT(), core.CCSI(core.CommAlwaysSplit)} {
		for _, threads := range []int{2, 4} {
			base := sim.DefaultConfig(tech, threads).WithScale(20000)
			legacySim, err := sim.NewWorkload(base, profs[:threads])
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := legacySim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if legacy.Branches != 0 || legacy.BranchMispredicts != 0 {
				t.Fatalf("%s/%dT: legacy config counted branches: %d/%d",
					tech.Name(), threads, legacy.Branches, legacy.BranchMispredicts)
			}
			for _, spelling := range []string{"static", " STATIC "} {
				cfg := base
				cfg.Predictor = spelling
				s, err := sim.NewWorkload(cfg, profs[:threads])
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if *got != *legacy {
					t.Fatalf("%s/%dT: predictor %q diverged from the legacy front end:\nstatic %+v\nlegacy %+v",
						tech.Name(), threads, spelling, got, legacy)
				}
			}
		}
	}
}

// TestPredictorFastLoopMatchesReferenceGrid sweeps predictor models across
// techniques and thread counts, comparing full counter structs between
// the fast and reference loops. Mispredict penalties move per-context wake
// cycles, so this is the machine check that the next-event jump honours
// predictor-dependent wake cycles.
func TestPredictorFastLoopMatchesReferenceGrid(t *testing.T) {
	mix, err := workload.MixByLabel("llhh")
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mix.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	const scale = 20000
	techs := []core.Technique{
		core.SMT(), core.CSMT(),
		core.CCSI(core.CommAlwaysSplit), core.OOSI(core.CommNoSplit),
	}
	for _, pred := range []string{"bimodal", "gshare", "tage"} {
		for _, tech := range techs {
			for _, threads := range []int{1, 2, 4} {
				cfg := sim.DefaultConfig(tech, threads).WithScale(scale)
				cfg.Predictor = pred
				label := fmt.Sprintf("%s/%s/%dT", pred, tech.Name(), threads)
				runPair(t, label, cfg, profs[:min(len(profs), max(threads, 2))])
			}
		}
	}
}

// TestPredictorModelsActuallyPredict is the sanity bound behind the grid:
// modeled predictors must observe branches, and a learning predictor must
// beat static's mispredict count (static mispredicts every taken branch
// by construction) on the synthetic workloads, which are loop-dominated.
func TestPredictorModelsActuallyPredict(t *testing.T) {
	mix, err := workload.MixByLabel("llhh")
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mix.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	base := sim.DefaultConfig(core.CCSI(core.CommAlwaysSplit), 2).WithScale(10000)
	legacySim, err := sim.NewWorkload(base, profs[:2])
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := legacySim.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"bimodal", "gshare", "tage"} {
		cfg := base
		cfg.Predictor = pred
		s, err := sim.NewWorkload(cfg, profs[:2])
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Branches == 0 {
			t.Fatalf("%s: no branches observed", pred)
		}
		if r.BranchMispredicts >= r.Branches {
			t.Fatalf("%s: mispredicted everything (%d/%d)", pred, r.BranchMispredicts, r.Branches)
		}
		// The synthetic back-edges are heavily taken, so static's penalty
		// count (== its mispredict count) should exceed a trained model's.
		if r.BranchStallCycles >= legacy.BranchStallCycles {
			t.Errorf("%s: branch stalls %d not below static's %d on a loop-heavy mix",
				pred, r.BranchStallCycles, legacy.BranchStallCycles)
		}
		// The synthetic taken bits are stochastic, so history predictors
		// converge to the per-branch bias, not to zero: bound loosely.
		if r.MispredictRate() > 0.6 {
			t.Errorf("%s: mispredict rate %.2f implausibly high", pred, r.MispredictRate())
		}
	}
}

// TestPredictorRandomizedDifferential is the randomized property for the
// predictor axis: random profiles (including branch- and taken-heavy
// draws), techniques, thread counts and predictor models, with
// full counter equality between the fast and reference loops.
func TestPredictorRandomizedDifferential(t *testing.T) {
	r := rng.New(0xb9ed)
	techs := core.AllTechniques()
	models := bpred.Names()[1:] // skip static: covered by the legacy differential
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		threads := 1 + r.Intn(4)
		cfg := sim.DefaultConfig(techs[r.Intn(len(techs))], threads).WithScale(20000 + int64(r.Intn(20000)))
		cfg.Seed = r.Uint64()
		cfg.Predictor = models[r.Intn(len(models))]
		if r.Bool(0.3) {
			cfg.TimesliceCycles = int64(500 + r.Intn(5000))
		}
		nprofs := threads
		if r.Bool(0.4) {
			nprofs = threads + 1 // oversubscribe: predictors persist across switches
		}
		profs := make([]synth.Profile, nprofs)
		for i := range profs {
			profs[i] = randomProfile(r, trial*10+i, cfg.Geom)
			// Push branch density up so predictor state actually churns.
			profs[i].BranchProb = 0.2 + r.Float64()*0.6
			profs[i].TakenProb = r.Float64()
		}
		label := fmt.Sprintf("trial %d (%s, %s, %dT, %d jobs)",
			trial, cfg.Predictor, cfg.Tech.Name(), threads, nprofs)
		runPair(t, label, cfg, profs)
	}
}
