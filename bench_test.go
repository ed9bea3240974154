// Package vexsmt_test is the benchmark harness that regenerates every table
// and figure of the paper's evaluation (Section VI) as Go benchmarks:
//
//	BenchmarkFigure13a — per-benchmark single-thread IPCr/IPCp
//	BenchmarkFigure14  — CCSI speedup over CSMT (2T/4T, NS/AS)
//	BenchmarkFigure15  — COSI and OOSI speedups over SMT
//	BenchmarkFigure16  — absolute IPC of all eight techniques
//
// plus ablations the paper motivates but does not plot (cluster renaming,
// cluster-count scaling) and micro-benchmarks of the
// simulator substrates. Figures report their headline numbers through
// b.ReportMetric, so `go test -bench=.` prints the reproduced series.
// Benchmarks run at a reduced scale for tractability; `cmd/paperbench
// -scale 1` reproduces paper-scale runs.
package vexsmt_test

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"vexsmt/internal/cache"
	"vexsmt/internal/core"
	"vexsmt/internal/isa"
	"vexsmt/internal/rng"
	"vexsmt/internal/sim"
	"vexsmt/internal/synth"
	"vexsmt/internal/trace"
	"vexsmt/internal/workload"
	"vexsmt/internal/wstore"
	"vexsmt/pkg/vexsmt"
	rescache "vexsmt/pkg/vexsmt/cache"
)

// benchScale divides the paper's 200M-instruction runs for benchmarking.
const benchScale = 2000

// BenchmarkFigure13a reproduces the benchmark characterization table: one
// sub-benchmark per paper benchmark, reporting measured IPCr and IPCp next
// to the paper's values.
func BenchmarkFigure13a(b *testing.B) {
	for _, row := range workload.PaperFigure13a() {
		b.Run(row.Name, func(b *testing.B) {
			prof, ok := synth.ByName(row.Name)
			if !ok {
				b.Fatal("missing profile")
			}
			var ipcr, ipcp float64
			for i := 0; i < b.N; i++ {
				var err error
				ipcr, ipcp, err = sim.MeasuredIPC(prof, benchScale)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ipcr, "IPCr")
			b.ReportMetric(ipcp, "IPCp")
			b.ReportMetric(row.IPCr, "paper-IPCr")
			b.ReportMetric(row.IPCp, "paper-IPCp")
		})
	}
}

// collectCells runs explicit cells through a fresh vexsmt.Service at
// benchScale and returns their results keyed by cell.
func collectCells(b *testing.B, cells []vexsmt.CellSpec) map[vexsmt.CellSpec]vexsmt.CellResult {
	svc, err := vexsmt.New(vexsmt.WithScale(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	rs, err := svc.Collect(context.Background(), vexsmt.Plan{Cells: cells})
	if err != nil {
		b.Fatal(err)
	}
	out := make(map[vexsmt.CellSpec]vexsmt.CellResult, len(rs.Cells))
	for _, c := range rs.Cells {
		out[c.CellSpec] = c
	}
	return out
}

// seriesAvg measures one speedup series of Figures 14/15: the average
// over the nine mixes of tech's speedup over base.
func seriesAvg(b *testing.B, tech, base string, threads int) float64 {
	var cells []vexsmt.CellSpec
	for _, mix := range vexsmt.Mixes() {
		cells = append(cells,
			vexsmt.CellSpec{Mix: mix, Technique: tech, Threads: threads},
			vexsmt.CellSpec{Mix: mix, Technique: base, Threads: threads})
	}
	res := collectCells(b, cells)
	var sum float64
	for i := 0; i < len(cells); i += 2 {
		sum += vexsmt.SpeedupPct(res[cells[i]], res[cells[i+1]])
	}
	return sum / float64(len(cells)/2)
}

// BenchmarkFigure14 reproduces the CCSI-over-CSMT speedup series.
func BenchmarkFigure14(b *testing.B) {
	paper := map[string]float64{
		"NS-2T": 6.1, "AS-2T": 8.7, "NS-4T": 3.5, "AS-4T": 7.5,
	}
	for _, threads := range []int{2, 4} {
		for _, comm := range []core.CommPolicy{core.CommNoSplit, core.CommAlwaysSplit} {
			name := comm.String() + "-" + map[int]string{2: "2T", 4: "4T"}[threads]
			b.Run(name, func(b *testing.B) {
				var avg float64
				for i := 0; i < b.N; i++ {
					avg = seriesAvg(b, core.CCSI(comm).Name(), "CSMT", threads)
				}
				b.ReportMetric(avg, "speedup-%")
				b.ReportMetric(paper[name], "paper-%")
			})
		}
	}
}

// BenchmarkFigure15 reproduces the COSI/OOSI-over-SMT speedup series.
func BenchmarkFigure15(b *testing.B) {
	type series struct {
		name  string
		tech  core.Technique
		th    int
		paper float64
	}
	list := []series{
		{"COSI-NS-2T", core.COSI(core.CommNoSplit), 2, 7.5},
		{"COSI-AS-2T", core.COSI(core.CommAlwaysSplit), 2, 9.8},
		{"OOSI-NS-2T", core.OOSI(core.CommNoSplit), 2, 8.2},
		{"OOSI-AS-2T", core.OOSI(core.CommAlwaysSplit), 2, 13.0},
		{"COSI-NS-4T", core.COSI(core.CommNoSplit), 4, 6.4},
		{"COSI-AS-4T", core.COSI(core.CommAlwaysSplit), 4, 9.4},
		{"OOSI-NS-4T", core.OOSI(core.CommNoSplit), 4, 7.9},
		{"OOSI-AS-4T", core.OOSI(core.CommAlwaysSplit), 4, 15.7},
	}
	for _, s := range list {
		b.Run(s.name, func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				avg = seriesAvg(b, s.tech.Name(), "SMT", s.th)
			}
			b.ReportMetric(avg, "speedup-%")
			b.ReportMetric(s.paper, "paper-%")
		})
	}
}

// BenchmarkFigure16 reproduces the absolute-IPC comparison of all eight
// techniques at 2 and 4 threads.
func BenchmarkFigure16(b *testing.B) {
	for _, threads := range []int{2, 4} {
		for _, tech := range vexsmt.Techniques() {
			name := map[int]string{2: "2T/", 4: "4T/"}[threads] + tech
			b.Run(name, func(b *testing.B) {
				var ipc float64
				for i := 0; i < b.N; i++ {
					var cells []vexsmt.CellSpec
					for _, mix := range vexsmt.Mixes() {
						cells = append(cells, vexsmt.CellSpec{Mix: mix, Technique: tech, Threads: threads})
					}
					var sum float64
					for _, c := range collectCells(b, cells) {
						sum += c.IPC
					}
					ipc = sum / 9
				}
				b.ReportMetric(ipc, "IPC")
			})
		}
	}
}

// matrixBenchScale keeps one full-grid iteration tractable.
const matrixBenchScale = 8000

// benchmarkMatrix runs the full deduplicated Figure 14+15+16 grid (144
// cells) through a fresh vexsmt.Service at the given parallelism.
func benchmarkMatrix(b *testing.B, parallel int) {
	cells := 0
	for i := 0; i < b.N; i++ {
		svc, err := vexsmt.New(vexsmt.WithScale(matrixBenchScale), vexsmt.WithParallelism(parallel))
		if err != nil {
			b.Fatal(err)
		}
		if cells, err = svc.Prefetch(context.Background(), vexsmt.Plan{Figures: []string{"14", "15", "16"}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkMatrixSerial is the single-worker baseline for the grid.
func BenchmarkMatrixSerial(b *testing.B) { benchmarkMatrix(b, 1) }

// BenchmarkMatrixParallel fans the grid out over GOMAXPROCS workers; the
// cells/s ratio against BenchmarkMatrixSerial is the engine's speedup and
// tracks the perf trajectory on multi-core hardware.
func BenchmarkMatrixParallel(b *testing.B) { benchmarkMatrix(b, runtime.GOMAXPROCS(0)) }

// benchmarkCachedGrid runs the full figure grid through the public
// Service with a disk result cache rooted at dir.
func benchmarkCachedGrid(b *testing.B, dir string) *vexsmt.Service {
	d, err := rescache.NewDisk(dir)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := vexsmt.New(vexsmt.WithScale(matrixBenchScale), vexsmt.WithCache(d))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := svc.Collect(context.Background(), vexsmt.Plan{Figures: []string{"14", "15", "16"}}); err != nil {
		b.Fatal(err)
	}
	return svc
}

// BenchmarkCacheColdVsWarm measures what the content-addressed result
// cache buys a repeated sweep: "cold" simulates the 144-cell grid into a
// fresh cache, "warm" replays it entirely from disk. The cells/s ratio is
// the headline number of the caching layer (warm runs are typically
// orders of magnitude faster and perform zero simulator runs).
func BenchmarkCacheColdVsWarm(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc := benchmarkCachedGrid(b, b.TempDir())
			if svc.SimulationsRun() == 0 {
				b.Fatal("cold run simulated nothing")
			}
		}
		b.ReportMetric(float64(144*b.N)/b.Elapsed().Seconds(), "cells/s")
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		benchmarkCachedGrid(b, dir) // populate once, outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc := benchmarkCachedGrid(b, dir)
			if svc.SimulationsRun() != 0 {
				b.Fatalf("warm run simulated %d cells", svc.SimulationsRun())
			}
		}
		b.ReportMetric(float64(144*b.N)/b.Elapsed().Seconds(), "cells/s")
	})
}

// BenchmarkAblationRenaming quantifies cluster renaming (used by all paper
// experiments; proposed in the authors' CSMT paper).
func BenchmarkAblationRenaming(b *testing.B) {
	for _, renaming := range []bool{true, false} {
		name := map[bool]string{true: "on", false: "off"}[renaming]
		b.Run(name, func(b *testing.B) {
			mix, _ := workload.MixByLabel("llmm")
			profs, _ := mix.Profiles()
			var ipc float64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(core.CSMT(), 4).WithScale(benchScale)
				cfg.ClusterRenaming = renaming
				s, err := sim.NewWorkload(cfg, profs)
				if err != nil {
					b.Fatal(err)
				}
				r, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				ipc = r.IPC()
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkAblationClusters sweeps the cluster count at constant total
// issue width, an axis the paper's related work discusses.
func BenchmarkAblationClusters(b *testing.B) {
	geoms := map[string]isa.Geometry{
		"2x8": {Clusters: 2, IssueWidth: 8, ALUs: 8, Muls: 4, MemUnits: 2},
		"4x4": isa.ST200x4,
		"8x2": {Clusters: 8, IssueWidth: 2, ALUs: 2, Muls: 1, MemUnits: 1},
	}
	for _, name := range []string{"2x8", "4x4", "8x2"} {
		b.Run(name, func(b *testing.B) {
			mix, _ := workload.MixByLabel("mmhh")
			profs, _ := mix.Profiles()
			var ipc float64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(core.CCSI(core.CommAlwaysSplit), 4).WithScale(benchScale)
				cfg.Geom = geoms[name]
				s, err := sim.NewWorkload(cfg, profs)
				if err != nil {
					b.Fatal(err)
				}
				r, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				ipc = r.IPC()
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the substrates.

// BenchmarkEngineCycle times one engine cycle of four x264 threads
// through the calls the simulator's run loop makes: LoadFrom with the
// instruction's Summary and the thread's renaming rotation, then
// CycleMask into a reused CycleResult. The instructions come from a ring
// generated before the timer starts, so only the engine is timed.
func BenchmarkEngineCycle(b *testing.B) {
	const threads, ring = 4, 4096
	prof, _ := synth.ByName("x264")
	var insts [threads][]synth.TInst
	for t := range insts {
		p := prof
		p.Seed += uint64(t)
		insts[t] = make([]synth.TInst, ring)
		synth.MustNewGenerator(p, isa.ST200x4).NextN(insts[t])
	}
	for _, tech := range []core.Technique{
		core.CSMT(), core.CCSI(core.CommNoSplit), core.CCSI(core.CommAlwaysSplit),
		core.SMT(), core.COSI(core.CommAlwaysSplit), core.OOSI(core.CommAlwaysSplit),
	} {
		b.Run(tech.Name(), func(b *testing.B) {
			eng, err := core.NewEngine(isa.ST200x4, tech, threads)
			if err != nil {
				b.Fatal(err)
			}
			var next [threads]int
			var res core.CycleResult
			const ready = 1<<threads - 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for t := 0; t < threads; t++ {
					if !eng.Active(t) {
						ti := &insts[t][next[t]%ring]
						next[t]++
						eng.LoadFrom(t, &ti.Demand, ti.Summary, t)
					}
				}
				eng.CycleMask(ready, &res)
			}
		})
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	for _, name := range []string{"bzip2", "colorspace"} {
		b.Run(name, func(b *testing.B) {
			prof, _ := synth.ByName(name)
			gen := synth.MustNewGenerator(prof, isa.ST200x4)
			var ti synth.TInst
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen.Next(&ti)
			}
		})
	}
}

// BenchmarkNewWorkload times simulator setup for one four-thread cell:
// "interned" reuses the code layouts the process already holds, as every
// technique and predictor of a (mix, threads) pair does; "build" lays out
// every benchmark's code afresh (a seed no earlier iteration used).
func BenchmarkNewWorkload(b *testing.B) {
	profs := make([]synth.Profile, 0, 4)
	for _, name := range mixNames(b, "mmhh") {
		p, _ := synth.ByName(name)
		profs = append(profs, p)
	}
	cfg := sim.DefaultConfig(core.CCSI(core.CommAlwaysSplit), 4).WithScale(benchScale)
	newWorkload := func(b *testing.B, cfg sim.Config) {
		if _, err := sim.NewWorkload(cfg, profs); err != nil {
			b.Fatal(err)
		}
	}
	newWorkload(b, cfg) // intern before "build" can fill the arena
	b.Run("interned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			newWorkload(b, cfg)
		}
	})
	fresh := cfg // outlives b.Run's calibration rounds, so no seed repeats
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh.Seed++
			newWorkload(b, fresh)
		}
	})
}

// BenchmarkCacheAccess times the paper's 64 KB 4-way cache: "mixed"
// takes random addresses over 256 KB (about three accesses in four
// miss), "hits" random addresses over 32 KB, which stay resident once
// warm, so every timed access hits a random way, and "sequential" walks
// a 24 KB range in 8-byte steps, the pattern instruction fetch gives the
// ICache: runs of hits in one set.
func BenchmarkCacheAccess(b *testing.B) {
	for _, tc := range []struct {
		name string
		addr func(i int, r *rng.Rand) uint64
	}{
		{"mixed", func(_ int, r *rng.Rand) uint64 { return r.Uint64() % (256 << 10) }},
		{"hits", func(_ int, r *rng.Rand) uint64 { return r.Uint64() % (32 << 10) }},
		{"sequential", func(i int, _ *rng.Rand) uint64 { return 0x40_0000 + uint64(8*i)%(24<<10) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := cache.MustNew(cache.Paper64KB4Way)
			r := rng.New(1)
			addrs := make([]uint64, 4096)
			for i := range addrs {
				addrs[i] = tc.addr(i, r)
			}
			for _, a := range addrs {
				c.Access(a)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(addrs[i%len(addrs)])
			}
		})
	}
}

func benchmarkThroughput(b *testing.B, threads int, benchNames []string, reference bool) {
	// Whole-simulator speed in VLIW instructions per second.
	profs := make([]synth.Profile, 0, len(benchNames))
	for _, name := range benchNames {
		p, ok := synth.ByName(name)
		if !ok {
			b.Fatalf("missing profile %q", name)
		}
		profs = append(profs, p)
	}
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(core.CCSI(core.CommAlwaysSplit), threads).WithScale(benchScale)
		cfg.ReferenceLoop = reference
		s, err := sim.NewWorkload(cfg, profs)
		if err != nil {
			b.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += r.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// mixNames resolves a Figure 13(b) mix label to its benchmark names.
func mixNames(b *testing.B, label string) []string {
	mix, err := workload.MixByLabel(label)
	if err != nil {
		b.Fatal(err)
	}
	return mix.Benchmarks[:]
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	benchmarkThroughput(b, 4, mixNames(b, "mmhh"), false)
}

// BenchmarkSimulatorThroughputReference runs the bit-identical
// one-iteration-per-cycle reference loop (no stall fast-forward, no
// batched prefetch). The ratio against BenchmarkSimulatorThroughput is
// the event-driven core's speedup measured on the same hardware in the
// same run — the hardware-independent quantity cmd/benchgate gates on.
func BenchmarkSimulatorThroughputReference(b *testing.B) {
	benchmarkThroughput(b, 4, mixNames(b, "mmhh"), true)
}

// benchmarkTraceThroughput is the synthetic headline scenario (mmhh, CCSI
// AS, 4 threads) with the generators swapped for the trace replay engine:
// each thread's stream is recorded once outside the timer, encoded as
// VXT1 records and replayed from them, exactly how internal/wstore serves
// first-class workloads. The instrs/s ratio against
// BenchmarkSimulatorThroughput is the replay path's relative speed (no
// generator arithmetic, one record expanded per fetched instruction), and
// cmd/benchgate gates the ratio.
func benchmarkTraceThroughput(b *testing.B, reference bool) {
	names := mixNames(b, "mmhh")
	cfg := sim.DefaultConfig(core.CCSI(core.CommAlwaysSplit), len(names)).WithScale(benchScale)
	cfg.ReferenceLoop = reference
	recs := make([]trace.Records, len(names))
	for i, name := range names {
		p, ok := synth.ByName(name)
		if !ok {
			b.Fatalf("missing profile %q", name)
		}
		gen := synth.MustNewGenerator(p, isa.ST200x4)
		// One spawn's worth of instructions, so replay does the same work
		// per run as the synthetic path.
		r, err := trace.Encode(isa.ST200x4.Clusters, trace.Record(gen, int(gen.Length(cfg.ScaleDiv))))
		if err != nil {
			b.Fatal(err)
		}
		recs[i] = r
	}
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		jobs := make([]*sim.Job, len(recs))
		for t, r := range recs {
			rep, err := trace.NewReplayer(names[t], r)
			if err != nil {
				b.Fatal(err)
			}
			jobs[t] = sim.NewJob(rep, cfg.ScaleDiv)
		}
		s, err := sim.New(cfg, jobs)
		if err != nil {
			b.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += r.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkTraceReplayThroughput is the trace-replay headline benchgate
// gates against BenchmarkSimulatorThroughput (same run, same hardware).
func BenchmarkTraceReplayThroughput(b *testing.B) {
	benchmarkTraceThroughput(b, false)
}

// BenchmarkTraceReplayThroughputReference replays the same traces through
// the bit-identical one-iteration-per-cycle loop (reported, not gated).
func BenchmarkTraceReplayThroughputReference(b *testing.B) {
	benchmarkTraceThroughput(b, true)
}

// BenchmarkLoadWorkloads times the workload-store hop of a cold sweep's
// set-up on the checked-in corpus. parse is trace.Parse of each .vxt
// file's bytes (validate every record, copy out the record bytes),
// reported per instruction; loaddir is a fresh store's LoadDir of the
// whole directory: map, hash, parse (or assemble and record a .vex
// program) and publish.
func BenchmarkLoadWorkloads(b *testing.B) {
	const dir = "examples/corpus"
	b.Run("parse", func(b *testing.B) {
		paths, err := filepath.Glob(filepath.Join(dir, "*.vxt"))
		if err != nil || len(paths) == 0 {
			b.Fatalf("no traces in %s: %v", dir, err)
		}
		files := make([][]byte, len(paths))
		for i, p := range paths {
			if files[i], err = os.ReadFile(p); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		instrs := 0
		for i := 0; i < b.N; i++ {
			for _, data := range files {
				_, recs, err := trace.Parse(data)
				if err != nil {
					b.Fatal(err)
				}
				instrs += recs.Len()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
	})
	b.Run("loaddir", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wstore.New().LoadDir(dir); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReplayExpand times the replay hop alone: NextN over each trace
// of the checked-in corpus in fetch-sized batches (synth.BatchSize), the
// records expanded into a reused buffer as the simulator's fetch stage
// does. Reported per instruction.
func BenchmarkReplayExpand(b *testing.B) {
	traces, err := wstore.New().LoadDir("examples/corpus")
	if err != nil {
		b.Fatal(err)
	}
	reps := make([]*trace.Replayer, len(traces))
	for i, tr := range traces {
		if reps[i], err = tr.NewReplayer(); err != nil {
			b.Fatal(err)
		}
	}
	buf := make([]synth.TInst, synth.BatchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps[i%len(reps)].NextN(buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/instr")
}
