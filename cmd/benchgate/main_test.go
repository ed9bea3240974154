package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rawJSON mirrors real test2json output: benchmark result lines arrive
// split over two output events (name with a trailing tab, then metrics).
const rawJSON = `{"Action":"start","Package":"vexsmt"}
{"Action":"output","Package":"vexsmt","Output":"goos: linux\n"}
{"Action":"output","Package":"vexsmt","Output":"BenchmarkEngineCycle/CSMT-8    \t"}
{"Action":"output","Package":"vexsmt","Output":"10368650\t       108.7 ns/op\n"}
{"Action":"output","Package":"vexsmt","Output":"BenchmarkEngineCycle/CCSI_AS-8 \t 8984086\t       136.7 ns/op\n"}
{"Action":"output","Package":"vexsmt","Output":"BenchmarkSimulatorThroughput-8 \t"}
{"Action":"output","Package":"vexsmt","Output":"      31\t  74810503 ns/op\t   4567159 instrs/s\n"}
{"Action":"output","Package":"vexsmt","Output":"BenchmarkSimulatorThroughputReference-8 \t      30\t  76000000 ns/op\t   4400000 instrs/s\n"}
{"Action":"output","Package":"vexsmt","Output":"BenchmarkTraceReplayThroughput-8 \t      34\t  70000000 ns/op\t   4900000 instrs/s\n"}
{"Action":"output","Package":"vexsmt","Output":"BenchmarkTraceReplayThroughputReference-8 \t      28\t  80000000 ns/op\t   4100000 instrs/s\n"}
{"Action":"output","Package":"vexsmt","Output":"PASS\n"}
`

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseBenchJSONStream(t *testing.T) {
	dir := t.TempDir()
	raw := write(t, dir, "raw.json", rawJSON)
	m, err := parseBench(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.instrs != 4567159 {
		t.Fatalf("instrs/s = %v, want 4567159", m.instrs)
	}
	if m.ref != 4400000 {
		t.Fatalf("reference instrs/s = %v, want 4400000", m.ref)
	}
	// Each headline shares its name's prefix with its Reference variant:
	// neither may clobber the other.
	if m.trc != 4900000 || m.trcRef != 4100000 {
		t.Fatalf("trace metrics = %v/%v, want 4900000/4100000", m.trc, m.trcRef)
	}
	if m.engine["CSMT"] != 108.7 || m.engine["CCSI AS"] != 136.7 {
		t.Fatalf("engine metrics wrong: %v", m.engine)
	}
}

func TestParseBenchPlainText(t *testing.T) {
	dir := t.TempDir()
	raw := write(t, dir, "raw.txt",
		"BenchmarkSimulatorThroughput \t      31\t  74810503 ns/op\t   4567159 instrs/s\nPASS\n")
	m, err := parseBench(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.instrs != 4567159 {
		t.Fatalf("instrs/s = %v, want 4567159", m.instrs)
	}
	if m.ref != 0 {
		t.Fatalf("reference instrs/s = %v, want 0 (absent)", m.ref)
	}
}

func TestGatePassAndReport(t *testing.T) {
	dir := t.TempDir()
	raw := write(t, dir, "raw.json", rawJSON)
	base := write(t, dir, "base.json",
		`{"simulator_instrs_per_sec": 4314664, "pre_pr_instrs_per_sec": 2157332}`)
	out := filepath.Join(dir, "report.json")
	if err := run([]string{"-raw", raw, "-baseline", base, "-out", out}); err != nil {
		t.Fatalf("gate failed on healthy numbers: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.InstrsPerSec != 4567159 {
		t.Fatalf("report wrong: %+v", rep)
	}
	if rep.SpeedupVsPrePR < 2.0 {
		t.Fatalf("speedup vs pre-PR %v, want >= 2.0", rep.SpeedupVsPrePR)
	}
	if rep.FastOverReference <= 1.0 {
		t.Fatalf("fast/reference ratio %v, want > 1.0", rep.FastOverReference)
	}
	if rep.TraceInstrsPerSec != 4900000 || rep.TraceOverSynthetic <= 1.0 {
		t.Fatalf("trace report wrong: %+v", rep)
	}
}

func TestGateFailsOnTraceRegression(t *testing.T) {
	dir := t.TempDir()
	raw := write(t, dir, "raw.json", rawJSON)
	// SMT headline healthy, trace baseline far above the measured
	// 4900000.
	base := write(t, dir, "base.json",
		`{"simulator_instrs_per_sec": 4314664, "trace_replay_instrs_per_sec": 9000000}`)
	err := run([]string{"-raw", raw, "-baseline", base})
	if err == nil || !strings.Contains(err.Error(), "trace-replay throughput regression") {
		t.Fatalf("expected trace regression failure, got %v", err)
	}
}

func TestGateFailsWhenTraceSlowerThanSynthetic(t *testing.T) {
	dir := t.TempDir()
	// Trace replay at 77% of the synthetic headline: under the 90% floor
	// even though it clears its own baseline and reference loop.
	raw := write(t, dir, "raw.txt",
		"BenchmarkSimulatorThroughput \t 10\t 100 ns/op\t 4500000 instrs/s\n"+
			"BenchmarkTraceReplayThroughput \t 10\t 100 ns/op\t 3500000 instrs/s\n"+
			"BenchmarkTraceReplayThroughputReference \t 10\t 100 ns/op\t 3400000 instrs/s\n")
	base := write(t, dir, "base.json",
		`{"simulator_instrs_per_sec": 4500000, "trace_replay_instrs_per_sec": 3500000}`)
	err := run([]string{"-raw", raw, "-baseline", base})
	if err == nil || !strings.Contains(err.Error(), "slower than synthetic") {
		t.Fatalf("expected trace-vs-synthetic failure, got %v", err)
	}
	// The check can be disabled explicitly.
	if err := run([]string{"-raw", raw, "-baseline", base, "-min-trace-ratio", "0"}); err != nil {
		t.Fatalf("-min-trace-ratio 0 should disable the trace/synthetic gate: %v", err)
	}
}

func TestGateSkipsTraceWithOldBaseline(t *testing.T) {
	// A pre-PR-9 run has no trace benchmark at all: every trace check is
	// skipped (with a warning) rather than failing the gate.
	dir := t.TempDir()
	raw := write(t, dir, "raw.txt",
		"BenchmarkSimulatorThroughput \t 10\t 100 ns/op\t 4500000 instrs/s\n")
	base := write(t, dir, "base.json", `{"simulator_instrs_per_sec": 4500000}`)
	if err := run([]string{"-raw", raw, "-baseline", base}); err != nil {
		t.Fatalf("absent trace benchmark should skip the trace checks: %v", err)
	}
}

func TestGateFailsWhenFastSlowerThanReference(t *testing.T) {
	dir := t.TempDir()
	raw := write(t, dir, "raw.txt",
		"BenchmarkSimulatorThroughput \t 10\t 100 ns/op\t 4000000 instrs/s\n"+
			"BenchmarkSimulatorThroughputReference \t 10\t 100 ns/op\t 5000000 instrs/s\n")
	base := write(t, dir, "base.json", `{"simulator_instrs_per_sec": 4000000}`)
	err := run([]string{"-raw", raw, "-baseline", base})
	if err == nil || !strings.Contains(err.Error(), "slower than reference") {
		t.Fatalf("expected fast-vs-reference failure, got %v", err)
	}
	// The hardware-independent check can be disabled explicitly.
	if err := run([]string{"-raw", raw, "-baseline", base, "-min-ratio", "0"}); err != nil {
		t.Fatalf("-min-ratio 0 should disable the ratio gate: %v", err)
	}
}

func TestReportWrittenEvenOnFailure(t *testing.T) {
	dir := t.TempDir()
	raw := write(t, dir, "raw.json", rawJSON)
	base := write(t, dir, "base.json", `{"simulator_instrs_per_sec": 9000000}`)
	out := filepath.Join(dir, "report.json")
	if err := run([]string{"-raw", raw, "-baseline", base, "-out", out}); err == nil {
		t.Fatal("expected regression failure")
	}
	var rep Report
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report not written on gate failure: %v", err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pass || rep.InstrsPerSec != 4567159 {
		t.Fatalf("failure report wrong: %+v", rep)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	raw := write(t, dir, "raw.json", rawJSON)
	base := write(t, dir, "base.json", `{"simulator_instrs_per_sec": 9000000}`)
	err := run([]string{"-raw", raw, "-baseline", base})
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("expected regression failure, got %v", err)
	}
}

func TestGateToleratesSmallRegression(t *testing.T) {
	dir := t.TempDir()
	raw := write(t, dir, "raw.json", rawJSON)
	// Measured 4567159 is ~5% below this baseline: within the 10% budget.
	base := write(t, dir, "base.json", `{"simulator_instrs_per_sec": 4800000}`)
	if err := run([]string{"-raw", raw, "-baseline", base}); err != nil {
		t.Fatalf("5%% dip should pass the 10%% gate: %v", err)
	}
}

func TestUpdateRewritesBaseline(t *testing.T) {
	dir := t.TempDir()
	raw := write(t, dir, "raw.json", rawJSON)
	base := write(t, dir, "base.json",
		`{"simulator_instrs_per_sec": 1, "pre_pr_instrs_per_sec": 2157332, "note": "keep me"}`)
	if err := run([]string{"-raw", raw, "-baseline", base, "-update"}); err != nil {
		t.Fatal(err)
	}
	var b Baseline
	data, _ := os.ReadFile(base)
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.SimulatorInstrsPerSec != 4567159 || b.PrePRInstrsPerSec != 2157332 || b.Note != "keep me" {
		t.Fatalf("baseline not updated in place: %+v", b)
	}
	if b.TraceReplayInstrsPerSec != 4900000 {
		t.Fatalf("baseline trace headline not updated: %+v", b)
	}
}

func TestMissingMetricRejected(t *testing.T) {
	dir := t.TempDir()
	raw := write(t, dir, "raw.json", `{"Action":"output","Output":"PASS\n"}`)
	base := write(t, dir, "base.json", `{"simulator_instrs_per_sec": 1}`)
	if err := run([]string{"-raw", raw, "-baseline", base}); err == nil {
		t.Fatal("missing instrs/s metric accepted")
	}
}
