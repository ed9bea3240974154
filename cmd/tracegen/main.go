// Command tracegen inspects the synthetic benchmark generators: it dumps
// sample instructions, measures stream shape (ops/instruction, branch and
// memory behaviour) and single-thread IPC, and records generator streams
// as VXT1 trace files that the replay engine (internal/wstore) serves as
// first-class workloads. The full Figure 13(a) table is
// `paperbench -fig 13a`.
//
// Usage:
//
//	tracegen -bench colorspace -dump 20
//	tracegen -bench mcf -measure 100000
//	tracegen -bench fir -record 100000 -out fir.vxt
//	tracegen -corpus traces/             # record every vector profile
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"vexsmt/internal/isa"
	"vexsmt/internal/sim"
	"vexsmt/internal/synth"
	"vexsmt/internal/trace"
)

// ipcScale is the scale divisor of the single-thread IPC measurement,
// the same 1/150 cap paperbench's Figure 13(a) uses.
const ipcScale = 150

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		bench   = fs.String("bench", "", "benchmark name (see -list)")
		list    = fs.Bool("list", false, "list benchmark profiles (scalar and vector)")
		dump    = fs.Int("dump", 0, "dump N sample instructions")
		measure = fs.Int64("measure", 0, "measure stream shape over N instructions")
		record  = fs.Int("record", 0, "record N instructions of -bench to -out (also sizes -corpus traces)")
		out     = fs.String("out", "", "output trace file for -record")
		replay  = fs.String("replay", "", "replay a recorded trace file and print its shape")
		corpus  = fs.String("corpus", "", "record every vector profile into this directory as <name>.vxt")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *corpus != "":
		// A ready-to-serve trace corpus: every vector/SIMD profile, one
		// VXT1 file each, loadable by vexsmtd -workload-dir and
		// vexsmtctl -corpus.
		n := *record
		if n == 0 {
			n = 100_000
		}
		if err := os.MkdirAll(*corpus, 0o755); err != nil {
			return err
		}
		for _, prof := range synth.VectorCatalog() {
			if err := recordTrace(prof, n, filepath.Join(*corpus, prof.Name+".vxt")); err != nil {
				return err
			}
		}
		return nil

	case *record > 0:
		prof, ok := synth.ByName(*bench)
		if !ok {
			return fmt.Errorf("-record needs -bench (try -list)")
		}
		if *out == "" {
			return fmt.Errorf("-record needs -out")
		}
		return recordTrace(prof, *record, *out)

	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		defer f.Close()
		name, clusters, instrs, err := trace.Read(f)
		if err != nil {
			return err
		}
		rep, err := trace.NewReplayer(name, instrs)
		if err != nil {
			return err
		}
		sh := synth.Measure(rep, int64(len(instrs)))
		fmt.Printf("trace %s: %d instructions, %d clusters\n", name, len(instrs), clusters)
		fmt.Printf("  ops/instr %.3f  taken %.3f  mem/instr %.3f  comm %.3f\n",
			sh.OpsPerInstr, sh.TakenFrac, sh.MemPerInstr, sh.CommFrac)
		return nil

	case *list:
		fmt.Printf("%-12s %-4s %8s %8s %8s %8s %8s\n",
			"name", "ilp", "meanOps", "memFrac", "commPr", "burstPr", "lenM")
		for _, p := range append(synth.Catalog(), synth.VectorCatalog()...) {
			fmt.Printf("%-12s %-4s %8.2f %8.2f %8.2f %8.2f %8.0f\n",
				p.Name, p.Class.String(), p.MeanOps, p.MemFrac, p.CommProb, p.BurstProb, p.LengthMInstr)
		}
		return nil

	case *bench != "":
		prof, ok := synth.ByName(*bench)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (try -list)", *bench)
		}
		gen, err := synth.NewGenerator(prof, isa.ST200x4)
		if err != nil {
			return err
		}
		if *dump > 0 {
			var ti synth.TInst
			for i := 0; i < *dump; i++ {
				gen.Next(&ti)
				fmt.Printf("pc=0x%06x ops=%2d taken=%-5v clusters=%04b",
					ti.PC, ti.Demand.NumOps(), ti.Taken, ti.Demand.UsedClusters())
				for c := 0; c < isa.ST200x4.Clusters; c++ {
					b := ti.Demand.B[c]
					if !b.IsEmpty() {
						fmt.Printf("  c%d[%da %dm %dx]", c, b.ALU, b.Mul, b.Mem)
					}
				}
				fmt.Println()
			}
			return nil
		}
		n := *measure
		if n == 0 {
			n = 100_000
		}
		sh := synth.Measure(gen, n)
		fmt.Printf("%s over %d instructions:\n", prof.Name, sh.Instrs)
		fmt.Printf("  ops/instr   %.3f\n", sh.OpsPerInstr)
		fmt.Printf("  taken frac  %.3f\n", sh.TakenFrac)
		fmt.Printf("  mem/instr   %.3f\n", sh.MemPerInstr)
		fmt.Printf("  comm frac   %.3f\n", sh.CommFrac)
		ipcr, ipcp, err := sim.MeasuredIPC(prof, ipcScale)
		if err != nil {
			return err
		}
		fmt.Printf("  IPCr %.2f  IPCp %.2f (at 1/%d paper scale)\n", ipcr, ipcp, ipcScale)
		return nil

	default:
		fs.Usage()
		return fmt.Errorf("no mode selected (want -list, -bench, -record, -replay or -corpus)")
	}
}

// recordTrace generates n instructions of prof and writes them as a VXT1
// trace file.
func recordTrace(prof synth.Profile, n int, path string) error {
	gen, err := synth.NewGenerator(prof, isa.ST200x4)
	if err != nil {
		return err
	}
	instrs := trace.Record(gen, n)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Write(f, prof.Name, isa.ST200x4.Clusters, instrs); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d instructions of %s to %s\n", len(instrs), prof.Name, path)
	return nil
}
