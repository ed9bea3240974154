// Command perfbench is the repository's benchmark: sweeps driven through
// the real serving path — shard.Coordinator → shard.HTTP → loopback →
// server.Server.Handler() → vexsmt.Service → CellCache — in one process,
// timed end to end with tracing off, and traced layer by layer from the
// benchmark's own wrappers around each layer's public seam.
//
//	bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads (see workload.go): cold-sweep simulates every cell in fresh
// processes over an empty disk cache; warm-sweep recalls every cell from
// a primed disk cache; peer-sweep fills every cell from a second daemon's
// cache over the fleet peer protocol. Every sweep's canonical export is
// checked against a golden digest (golden.json, regenerated by -regen from
// an independent cache-off Service.Collect) and against the workload's
// simulation and cache-traffic invariants.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics — the end-to-end metrics with --trace 0, the
// per-layer ones with --trace 1. The exit code is non-zero when any check
// failed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
)

func main() {
	procStart := time.Now()
	var (
		wlName  = flag.String("workload", "cold-sweep", "workload: cold-sweep, warm-sweep or peer-sweep")
		seed    = flag.Int64("seed", 1, "workload seed; the plan runs at seed mod 16")
		seconds = flag.Float64("seconds", 20, "how long to measure")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		regen   = flag.String("regen", "", "write golden digests to this file and exit")

		child     = flag.Bool("child", false, "internal: run as a measuring process")
		childSeed = flag.Uint64("plan-seed", 0, "internal: the measuring process's plan seed")
		dir       = flag.String("dir", "", "internal: the measuring process's cache directory")
		spans     = flag.String("spans", "", "internal: where a traced measuring process writes spans")
		corpus    = flag.String("corpus", filepath.Join("examples", "corpus"), "trace corpus directory")
	)
	flag.Parse()
	ctx := context.Background()

	if *regen != "" {
		if err := regenerate(ctx, *regen, *corpus); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	wl, err := workloadByName(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := runConfig{wl: wl, scale: defaultScale, seconds: *seconds, trace: *trace == 1, corpus: *corpus, dir: *dir, spans: *spans}

	if *child {
		cfg.seed = *childSeed
		// A process with one P is bound to one CPU: the client, the
		// daemons and the probe then share that CPU's speed, and no wakeup
		// crosses CPUs, which in a VM costs more than the work woken.
		if wl.procs == 1 {
			if err := pinToCPU(0); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
		}
		res, err := measure(ctx, cfg, procStart)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		res.MaxRSSKB = peakRSSKB()
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.seed = planSeed(*seed)
	os.Exit(runParent(ctx, cfg, *seed))
}

// outDir is where runs keep scratch state and spans: under the build
// directory $CARGO_TARGET_DIR (default .bench_build) of the working tree.
func outDir() string {
	d := os.Getenv("CARGO_TARGET_DIR")
	if d == "" {
		d = ".bench_build"
	}
	return filepath.Join(d, "perfbench")
}

// runParent measures one workload run and prints the report and result
// line. It returns the process exit code.
func runParent(ctx context.Context, cfg runConfig, seed int64) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if _, err := os.Stat(cfg.corpus); err != nil {
		return fail(fmt.Errorf("trace corpus: %w", err))
	}
	runDir := filepath.Join(outDir(), fmt.Sprintf("run-%s-%d", cfg.wl.name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(runDir)
	spansPath := func(i int) string {
		return filepath.Join(outDir(), fmt.Sprintf("spans-%s-seed%d-%d.json", cfg.wl.name, seed, i))
	}

	var children []*childResult
	var samples []probeSample
	start := time.Now()
	if cfg.wl.name == "cold-sweep" {
		// One fresh process per cold sweep; a traced run alternates traced
		// and untraced processes so tracing overhead can be read off.
		minProcs := 1
		if cfg.trace {
			minProcs = 2
		}
		// A cold sweep is one long sweep per process, so the probe runs
		// alongside it, from this process, on each CPU the sweep uses.
		probes := startSampler(cpuList(cfg.wl.procs))
		defer probes.finish()
		for i := 0; i < minProcs || time.Since(start).Seconds() < cfg.seconds; i++ {
			c := cfg
			c.trace = cfg.trace && i%2 == 0
			c.dir = filepath.Join(runDir, "cache-"+strconv.Itoa(i))
			if c.trace {
				c.spans = spansPath(i)
			}
			res, err := spawn(ctx, c)
			if err != nil {
				return fail(err)
			}
			children = append(children, res)
		}
		samples = probes.finish()
	} else {
		// Warm and peer split the time over several processes that share
		// the primed directory read-only: one process's placement and heap
		// layout then cannot set the whole run's figures.
		cfg.dir = filepath.Join(runDir, "cache")
		if err := prime(ctx, cfg); err != nil {
			return fail(fmt.Errorf("priming: %w", err))
		}
		for i := 0; i < measureProcs; i++ {
			c := cfg
			c.seconds = cfg.seconds / measureProcs
			if c.trace {
				c.spans = spansPath(i)
			}
			res, err := spawn(ctx, c)
			if err != nil {
				return fail(err)
			}
			children = append(children, res)
			samples = mergeSamples(samples, res.Probes)
		}
	}
	return report(os.Stdout, cfg, seed, aggregate(children, samples))
}

// cpuList is CPUs 0..n-1.
func cpuList(n int) []int {
	cpus := make([]int, n)
	for i := range cpus {
		cpus[i] = i
	}
	return cpus
}

// measureProcs is how many processes a warm or peer run measures in.
const measureProcs = 6

// spawn runs one measuring process and returns its result.
func spawn(ctx context.Context, cfg runConfig) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(cfg.seconds*float64(time.Second))+120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child",
		"-workload", cfg.wl.name,
		"-plan-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[cfg.trace],
		"-corpus", cfg.corpus,
		"-dir", cfg.dir,
		"-spans", cfg.spans)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cfg.wl.procs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("measuring process: %w", err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("measuring process output: %w", err)
	}
	return &res, nil
}

// prime fills cfg.dir with the workload's results, untimed, through an
// in-process Service over the disk cache, and checks them against the
// golden digest.
func prime(ctx context.Context, cfg runConfig) error {
	d, err := cache.NewDisk(cfg.dir)
	if err != nil {
		return err
	}
	svc, err := vexsmt.New(vexsmt.WithScale(cfg.scale), vexsmt.WithSeed(cfg.seed),
		vexsmt.WithParallelism(runtime.NumCPU()), vexsmt.WithCache(d))
	if err != nil {
		return err
	}
	plan, err := workloadPlan(cfg.wl, cfg.corpus)
	if err != nil {
		return err
	}
	rs, err := svc.Collect(ctx, plan)
	if err != nil {
		return err
	}
	golden, err := goldenDigest(cfg.wl.name, cfg.scale, cfg.seed)
	if err != nil {
		return err
	}
	if got := exportDigest(rs); got != golden {
		return fmt.Errorf("primed export digest %s, golden %s", got, golden)
	}
	return nil
}

// Golden digests are kept for every plan seed at the benchmark's scale,
// and for two seeds at the tests' tiny scale.
const testScale = 200000

// regenerate computes every golden digest from a cache-off Service.Collect
// and writes them to path.
func regenerate(ctx context.Context, path, corpus string) error {
	g := make(map[string]string)
	add := func(scale int64, seeds uint64) error {
		for seed := uint64(0); seed < seeds; seed++ {
			byPlan := make(map[bool]string) // warm and peer share the grid plan
			for _, wl := range workloads {
				d, ok := byPlan[wl.corpus]
				if !ok {
					plan, err := workloadPlan(wl, corpus)
					if err != nil {
						return err
					}
					if d, err = referenceDigest(ctx, plan, scale, seed); err != nil {
						return err
					}
					byPlan[wl.corpus] = d
				}
				g[goldenKey(wl.name, scale, seed)] = d
				fmt.Fprintf(os.Stderr, "%s %s\n", goldenKey(wl.name, scale, seed), d)
			}
		}
		return nil
	}
	if err := add(testScale, 2); err != nil {
		return err
	}
	if err := add(defaultScale, goldenSeeds); err != nil {
		return err
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// peakRSSKB reads this process's resident-set high-water mark. The
// kernel's rusage for a child is no use here: it folds in the parent's
// RSS at the moment of the vfork-and-exec Go uses to start processes.
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb
		}
	}
	return 0
}
