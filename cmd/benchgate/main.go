// Command benchgate is the CI benchmark regression gate: it reads the
// output of `go test -bench -json` for the simulator micro-benchmarks,
// extracts the headline metrics (BenchmarkSimulatorThroughput and
// BenchmarkTraceReplayThroughput instrs/s and the per-technique
// BenchmarkEngineCycle ns/op), writes them as a machine-readable
// BENCH_*.json artifact, and fails when throughput regresses more than
// the allowed fraction below the checked-in baseline.
//
//	go test -run '^$' -bench 'BenchmarkSimulatorThroughput|BenchmarkTraceReplayThroughput|BenchmarkEngineCycle' \
//	    -benchtime 1s -json . | tee bench_raw.json
//	benchgate -raw bench_raw.json -baseline BENCH_baseline.json -out BENCH_pr9.json
//
// Keep the -bench pattern unanchored: it must also select
// BenchmarkSimulatorThroughputReference, whose in-job fast/reference
// ratio is the hardware-independent half of the gate (benchgate warns
// and skips that check when the reference metric is absent). The
// trace/synthetic ratio (-min-trace-ratio) is gated the same way: both
// headlines come from the same run on the same hardware, so the check
// catches a replay-path pessimization without depending on the runner's
// hardware class.
//
// The baseline records absolute numbers from a reference machine, so the
// gate is hardware-relative: refresh it with -update when the CI hardware
// class changes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// Baseline is the checked-in expectation (BENCH_baseline.json).
type Baseline struct {
	// SimulatorInstrsPerSec is the expected BenchmarkSimulatorThroughput
	// headline on the reference hardware; the gate fails when the measured
	// value drops more than MaxRegress below it.
	SimulatorInstrsPerSec float64 `json:"simulator_instrs_per_sec"`
	// PrePRInstrsPerSec is the same benchmark measured on the same
	// reference hardware before the event-driven core landed (PR 5); the
	// report derives the speedup from it.
	PrePRInstrsPerSec float64 `json:"pre_pr_instrs_per_sec"`
	// TraceReplayInstrsPerSec is the expected BenchmarkTraceReplayThroughput
	// headline — the same SMT workload replayed from recorded traces through
	// the workload store's trace records instead of the synthetic
	// generators. Gated like the other headlines; zero skips the check
	// (pre-PR-9 baselines).
	TraceReplayInstrsPerSec float64 `json:"trace_replay_instrs_per_sec,omitempty"`
	// EngineCycleNsPerOp records the per-technique engine cycle costs for
	// context; they are reported, not gated (ns/op is too noisy across
	// hardware classes for a hard limit).
	EngineCycleNsPerOp map[string]float64 `json:"engine_cycle_ns_per_op,omitempty"`
	Note               string             `json:"note,omitempty"`
}

// Report is the artifact written for each CI run (BENCH_pr5.json).
type Report struct {
	InstrsPerSec         float64 `json:"instrs_per_sec"`
	BaselineInstrsPerSec float64 `json:"baseline_instrs_per_sec"`
	RatioVsBaseline      float64 `json:"ratio_vs_baseline"`
	PrePRInstrsPerSec    float64 `json:"pre_pr_instrs_per_sec,omitempty"`
	SpeedupVsPrePR       float64 `json:"speedup_vs_pre_pr,omitempty"`
	// ReferenceInstrsPerSec is BenchmarkSimulatorThroughputReference (the
	// bit-identical per-cycle loop) measured in the same run; the
	// fast/reference ratio is hardware-independent, so it gates that the
	// event-driven path never becomes a pessimization even when the
	// absolute numbers shift with the runner's hardware class.
	ReferenceInstrsPerSec float64 `json:"reference_instrs_per_sec,omitempty"`
	FastOverReference     float64 `json:"fast_over_reference_ratio,omitempty"`
	// The trace block covers the recorded-workload replay path
	// (BenchmarkTraceReplayThroughput): absolute floor against the baseline,
	// in-job fast/reference ratio, and TraceOverSynthetic — the
	// hardware-independent check that trace replay stays within
	// -min-trace-ratio of the synthetic-generator headline measured in the
	// same run.
	TraceInstrsPerSec          float64            `json:"trace_replay_instrs_per_sec,omitempty"`
	BaselineTraceInstrsPerSec  float64            `json:"baseline_trace_replay_instrs_per_sec,omitempty"`
	TraceRatioVsBaseline       float64            `json:"trace_ratio_vs_baseline,omitempty"`
	TraceReferenceInstrsPerSec float64            `json:"trace_reference_instrs_per_sec,omitempty"`
	TraceFastOverReference     float64            `json:"trace_fast_over_reference_ratio,omitempty"`
	TraceOverSynthetic         float64            `json:"trace_over_synthetic_ratio,omitempty"`
	EngineCycleNsPerOp         map[string]float64 `json:"engine_cycle_ns_per_op,omitempty"`
	MaxRegressionAllowed       float64            `json:"max_regression_allowed"`
	MinFastOverReference       float64            `json:"min_fast_over_reference,omitempty"`
	MinTraceOverSynthetic      float64            `json:"min_trace_over_synthetic,omitempty"`
	Pass                       bool               `json:"pass"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		raw        = fs.String("raw", "", "benchmark output to parse: `go test -bench -json` stream or plain -bench text")
		baseline   = fs.String("baseline", "BENCH_baseline.json", "checked-in baseline file")
		out        = fs.String("out", "", "write the gate report as JSON to this file")
		maxRegress = fs.Float64("max-regress", 0.10, "maximum allowed fractional drop of instrs/s below the baseline")
		minRatio   = fs.Float64("min-ratio", 0.85, "minimum fast-loop/reference-loop throughput ratio (hardware-independent; 0 disables)")
		minTrace   = fs.Float64("min-trace-ratio", 0.90, "minimum trace-replay/synthetic throughput ratio measured in the same run (hardware-independent; 0 disables)")
		update     = fs.Bool("update", false, "rewrite the baseline from the measured numbers instead of gating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *raw == "" {
		return fmt.Errorf("-raw is required")
	}
	m, err := parseBench(*raw)
	if err != nil {
		return err
	}
	if m.instrs == 0 {
		return fmt.Errorf("%s: no instrs/s metric found (did BenchmarkSimulatorThroughput run?)", *raw)
	}

	if *update {
		var base Baseline
		if data, err := os.ReadFile(*baseline); err == nil {
			_ = json.Unmarshal(data, &base) // keep pre-PR references and note
		}
		base.SimulatorInstrsPerSec = m.instrs
		base.TraceReplayInstrsPerSec = m.trc
		base.EngineCycleNsPerOp = m.engine
		return writeJSON(*baseline, &base)
	}

	data, err := os.ReadFile(*baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", *baseline, err)
	}
	if base.SimulatorInstrsPerSec <= 0 {
		return fmt.Errorf("baseline %s: simulator_instrs_per_sec missing", *baseline)
	}

	rep := Report{
		InstrsPerSec:               m.instrs,
		BaselineInstrsPerSec:       base.SimulatorInstrsPerSec,
		RatioVsBaseline:            m.instrs / base.SimulatorInstrsPerSec,
		PrePRInstrsPerSec:          base.PrePRInstrsPerSec,
		ReferenceInstrsPerSec:      m.ref,
		TraceInstrsPerSec:          m.trc,
		BaselineTraceInstrsPerSec:  base.TraceReplayInstrsPerSec,
		TraceReferenceInstrsPerSec: m.trcRef,
		EngineCycleNsPerOp:         m.engine,
		MaxRegressionAllowed:       *maxRegress,
		MinFastOverReference:       *minRatio,
		MinTraceOverSynthetic:      *minTrace,
	}
	if base.PrePRInstrsPerSec > 0 {
		rep.SpeedupVsPrePR = m.instrs / base.PrePRInstrsPerSec
	}
	if m.ref > 0 {
		rep.FastOverReference = m.instrs / m.ref
	}
	if m.trc > 0 && base.TraceReplayInstrsPerSec > 0 {
		rep.TraceRatioVsBaseline = m.trc / base.TraceReplayInstrsPerSec
	}
	if m.trc > 0 && m.trcRef > 0 {
		rep.TraceFastOverReference = m.trc / m.trcRef
	}
	if m.trc > 0 {
		rep.TraceOverSynthetic = m.trc / m.instrs
	}
	absOK := rep.RatioVsBaseline >= 1.0-*maxRegress
	ratioOK := *minRatio <= 0 || m.ref == 0 || rep.FastOverReference >= *minRatio
	// The trace checks mirror the SMT ones and are skipped field-by-field
	// when the baseline or the benchmark predates them.
	trcAbsOK := base.TraceReplayInstrsPerSec <= 0 || m.trc == 0 || rep.TraceRatioVsBaseline >= 1.0-*maxRegress
	trcRatioOK := *minRatio <= 0 || m.trc == 0 || m.trcRef == 0 || rep.TraceFastOverReference >= *minRatio
	trcSynthOK := *minTrace <= 0 || m.trc == 0 || rep.TraceOverSynthetic >= *minTrace
	rep.Pass = absOK && ratioOK && trcAbsOK && trcRatioOK && trcSynthOK
	if *minRatio > 0 && m.ref == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: warning: BenchmarkSimulatorThroughputReference metric absent; "+
			"fast/reference ratio check skipped (use an unanchored -bench pattern to include it)")
	}
	if (base.TraceReplayInstrsPerSec > 0 || *minTrace > 0) && m.trc == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: warning: BenchmarkTraceReplayThroughput metric absent; "+
			"trace-replay checks skipped (add BenchmarkTraceReplayThroughput to the -bench pattern)")
	}

	// Write the artifact before gating so a failing job still uploads the
	// measured numbers.
	if *out != "" {
		if err := writeJSON(*out, &rep); err != nil {
			return err
		}
	}
	fmt.Printf("benchgate: %.0f instrs/s (baseline %.0f, ratio %.2f, fast/reference %.2f, speedup vs pre-PR %.2fx)\n",
		rep.InstrsPerSec, rep.BaselineInstrsPerSec, rep.RatioVsBaseline, rep.FastOverReference, rep.SpeedupVsPrePR)
	if m.trc > 0 {
		fmt.Printf("benchgate: trace replay %.0f instrs/s (baseline %.0f, ratio %.2f, fast/reference %.2f, trace/synthetic %.2f)\n",
			rep.TraceInstrsPerSec, rep.BaselineTraceInstrsPerSec, rep.TraceRatioVsBaseline, rep.TraceFastOverReference, rep.TraceOverSynthetic)
	}
	if !absOK {
		return fmt.Errorf("throughput regression: %.0f instrs/s is more than %.0f%% below baseline %.0f",
			m.instrs, *maxRegress*100, base.SimulatorInstrsPerSec)
	}
	if !ratioOK {
		return fmt.Errorf("fast loop slower than reference loop: ratio %.3f below %.3f (%.0f vs %.0f instrs/s)",
			rep.FastOverReference, *minRatio, m.instrs, m.ref)
	}
	if !trcAbsOK {
		return fmt.Errorf("trace-replay throughput regression: %.0f instrs/s is more than %.0f%% below baseline %.0f",
			m.trc, *maxRegress*100, base.TraceReplayInstrsPerSec)
	}
	if !trcRatioOK {
		return fmt.Errorf("trace-replay fast loop slower than reference loop: ratio %.3f below %.3f (%.0f vs %.0f instrs/s)",
			rep.TraceFastOverReference, *minRatio, m.trc, m.trcRef)
	}
	if !trcSynthOK {
		return fmt.Errorf("trace replay slower than synthetic generation: ratio %.3f below %.3f (%.0f vs %.0f instrs/s)",
			rep.TraceOverSynthetic, *minTrace, m.trc, m.instrs)
	}
	return nil
}

// benchMetrics is everything parseBench extracts from one benchmark run.
type benchMetrics struct {
	instrs float64 // BenchmarkSimulatorThroughput (SMT headline)
	ref    float64 // BenchmarkSimulatorThroughputReference
	trc    float64 // BenchmarkTraceReplayThroughput
	trcRef float64 // BenchmarkTraceReplayThroughputReference
	engine map[string]float64
}

// headlineBenchmarks maps instrs/s benchmark names, without the
// -GOMAXPROCS suffix go test appends, to the benchMetrics field that
// records them.
var headlineBenchmarks = map[string]func(*benchMetrics) *float64{
	"BenchmarkSimulatorThroughput":            func(m *benchMetrics) *float64 { return &m.instrs },
	"BenchmarkSimulatorThroughputReference":   func(m *benchMetrics) *float64 { return &m.ref },
	"BenchmarkTraceReplayThroughput":          func(m *benchMetrics) *float64 { return &m.trc },
	"BenchmarkTraceReplayThroughputReference": func(m *benchMetrics) *float64 { return &m.trcRef },
}

// parseBench extracts the instrs/s headlines and per-technique engine-cycle
// ns/op from benchmark output, accepting either the test2json event stream
// of `go test -json` or plain `go test -bench` text. test2json splits a
// benchmark result line over several output events (the name arrives with
// a trailing tab, the metrics separately), so events are reassembled into
// a plain text stream before line parsing.
func parseBench(path string) (benchMetrics, error) {
	var m benchMetrics
	f, err := os.Open(path)
	if err != nil {
		return m, err
	}
	defer f.Close()
	var text strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var ev struct {
				Action string `json:"Action"`
				Output string `json:"Output"`
			}
			if json.Unmarshal([]byte(line), &ev) == nil && ev.Action == "output" {
				text.WriteString(ev.Output)
			}
			continue
		}
		text.WriteString(line)
		text.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return m, err
	}

	m.engine = make(map[string]float64)
	for _, line := range strings.Split(text.String(), "\n") {
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		name, metrics := parseBenchLine(line)
		// Strip the -<GOMAXPROCS> suffix go test appends.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if tech, ok := strings.CutPrefix(name, "BenchmarkEngineCycle/"); ok {
			if v, ok := metrics["ns/op"]; ok {
				m.engine[strings.ReplaceAll(tech, "_", " ")] = v
			}
			continue
		}
		if dst, ok := headlineBenchmarks[name]; ok {
			if v, ok := metrics["instrs/s"]; ok {
				*dst(&m) = v
			}
		}
	}
	return m, nil
}

// parseBenchLine splits "BenchmarkX-8  31  77076432 ns/op  4432891 instrs/s"
// into the benchmark name and its value-unit metric pairs.
func parseBenchLine(line string) (string, map[string]float64) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return "", nil
	}
	metrics := make(map[string]float64)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		metrics[fields[i+1]] = v
	}
	return fields[0], metrics
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
