// Command vexsim runs one workload mix under one machine configuration and
// prints detailed statistics.
//
// Usage:
//
//	vexsim -mix llhh -tech "CCSI AS" -threads 4
//	vexsim -mix hhhh -tech SMT -threads 2 -scale 100 -seed 7
//	vexsim -mix mmhh -tech "COSI NS" -threads 4 -no-renaming
//	vexsim -mix hhhh -reference-loop                        # bit-identity check
//	vexsim -mix llhh -predictor gshare                      # modeled front end
//	vexsim -mix mmhh -scale 10 -cpuprofile cpu.prof         # profile the hot loop
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"vexsmt/internal/bpred"
	"vexsmt/internal/core"
	"vexsmt/internal/sim"
	"vexsmt/internal/workload"
)

func main() {
	// All work happens in run so its deferred cleanup (CPU profile flush,
	// file close) executes even on error paths; os.Exit lives only here.
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vexsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vexsim", flag.ContinueOnError)
	var (
		mixLabel   = fs.String("mix", "llhh", "workload mix label (Figure 13b) or 'list'")
		techName   = fs.String("tech", "CCSI AS", `technique: SMT, CSMT, "CCSI NS", "CCSI AS", "COSI NS", "COSI AS", "OOSI NS", "OOSI AS"`)
		threads    = fs.Int("threads", 4, "hardware thread contexts")
		scale      = fs.Int64("scale", 100, "scale divisor of paper scale (1 = 200M instructions)")
		seed       = fs.Uint64("seed", 1, "simulation seed")
		predictor  = fs.String("predictor", "static", "branch predictor: static, bimodal, gshare, tage")
		perfect    = fs.Bool("perfect", false, "perfect memory (no cache misses)")
		noRename   = fs.Bool("no-renaming", false, "disable cluster renaming (ablation)")
		refLoop    = fs.Bool("reference-loop", false, "use the one-iteration-per-cycle reference loop (bit-identical to the event-driven fast path, slower; for differential debugging)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *mixLabel == "list" {
		for _, m := range workload.Figure13b() {
			fmt.Printf("%-6s %v\n", m.Label, m.Benchmarks)
		}
		return nil
	}
	mix, err := workload.MixByLabel(*mixLabel)
	if err != nil {
		return err
	}
	tech, err := core.ParseTechnique(*techName)
	if err != nil {
		return err
	}
	pred, err := bpred.Canonical(*predictor)
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig(tech, *threads).WithScale(*scale)
	cfg.Seed = *seed
	cfg.Predictor = pred
	cfg.PerfectMemory = *perfect
	cfg.ClusterRenaming = !*noRename
	cfg.ReferenceLoop = *refLoop

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	profs, err := mix.Profiles()
	if err != nil {
		return err
	}
	s, err := sim.NewWorkload(cfg, profs)
	if err != nil {
		return err
	}
	r, err := s.Run()
	if err != nil {
		return err
	}

	fmt.Printf("workload %s on %d-thread %s machine (1/%d scale, seed %d)\n",
		mix.Label, *threads, tech.Name(), *scale, *seed)
	fmt.Printf("  cycles             %12d\n", r.Cycles)
	fmt.Printf("  VLIW instructions  %12d\n", r.Instrs)
	fmt.Printf("  operations         %12d\n", r.Ops)
	fmt.Printf("  IPC                %12.3f\n", r.IPC())
	fmt.Printf("  VLIW/cycle         %12.3f\n", r.VLIWPerCycle())
	fmt.Printf("  vertical waste     %11.1f%%\n", r.VerticalWaste()*100)
	fmt.Printf("  horizontal waste   %11.1f%%\n", r.HorizontalWaste()*100)
	fmt.Printf("  merged cycles      %12d\n", r.MergedCycles)
	fmt.Printf("  split instructions %12d\n", r.SplitInstrs)
	fmt.Printf("  icache miss rate   %11.2f%%\n", r.ICacheMissRate()*100)
	fmt.Printf("  dcache miss rate   %11.2f%%\n", r.DCacheMissRate()*100)
	fmt.Printf("  fetch stalls       %12d thread-cycles\n", r.FetchStallCycles)
	fmt.Printf("  memory stalls      %12d thread-cycles\n", r.MemStallCycles)
	fmt.Printf("  branch stalls      %12d thread-cycles\n", r.BranchStallCycles)
	fmt.Printf("  mem-port stalls    %12d cycles\n", r.MemPortStallCycles)
	fmt.Printf("  context switches   %12d\n", r.ContextSwitches)
	fmt.Printf("  respawns           %12d\n", r.Respawns)
	if pred != bpred.Default {
		fmt.Printf("  predictor          %12s\n", pred)
		fmt.Printf("  branches           %12d\n", r.Branches)
		fmt.Printf("  mispredicts        %12d (%.2f%%)\n", r.BranchMispredicts, r.MispredictRate()*100)
	}
	return nil
}
