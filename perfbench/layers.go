package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/shard"
)

// accountLayers are the rows of the accounting table, innermost first.
// "sched" is slot time no cell occupied: dispatch gaps, the health probe,
// plan resolution, canonicalization and the drain at the end of a sweep.
var accountLayers = []string{"sim", "fleet", "cache", "server", "http", "shard", "sched"}

// layerMap records which end-to-end metric each layer's metrics should
// move, and on which workload. A claimed gain names its row.
var layerMap = []struct{ layer, metrics, moves string }{
	{"sim", "sim.cell_ms_p50/p95, sim.busy_s, sim.runs, sim.instrs_per_s",
		"cold-sweep sweep_s, cell_ms_*, sim_instrs_per_s; no change on warm and peer (sim.runs = 0)"},
	{"wstore", "wstore.load_ms", "cold-sweep setup_s, peak_rss_mb"},
	{"cache", "cache.open_ms, cache.get_*_us_p50, cache.put_us_p50, cache.hits/misses/errors, cache.hit_ratio",
		"hits: warm-sweep cell_ms_p50, sweep_s; open: warm setup_s; puts: peer-sweep sweep_s (cold < 1%)"},
	{"fleet", "fleet.fetch_ms_p50/p95, fleet.fetches, fleet.fetch_hit_ratio", "peer-sweep cell_ms_p50, cell_ms_p95, sweep_s"},
	{"server", "server.submit/stream/cache_get/healthz_ms_p50, server.requests, self time",
		"warm-sweep and peer-sweep cell_ms_p50 (cold < 5%)"},
	{"http", "http.submit_rtt_ms_p50, http.stream_rtt_ms_p50, http.bytes_in", "warm-sweep cell_ms_p50"},
	{"shard/sched", "shard.cell_rtt_ms_p50/p95, shard.retries, sched.slot_busy_frac, sched.drain_ms",
		"cold-sweep sweep_s, cell_ms_p95"},
	{"plan/schema", "plan.cells_us, schema.encode/decode_us_per_cell, ndjson.decode_us_per_cell", "warm-sweep cell_ms_p50"},
	{"runtime", "runtime.alloc_mb_per_sweep, runtime.gc_cycles_per_sweep", "warm and peer cell_ms_p95, every peak_rss_mb"},
}

// layerStats accumulates the traced sweeps of one or more processes.
type layerStats struct {
	Sweeps  int                  `json:"sweeps"`
	Spans   map[string][]float64 `json:"spans_ms"` // span name -> durations
	Self    map[string]float64   `json:"self_s"`   // layer -> Σ self time
	SlotS   float64              `json:"slot_s"`   // Σ slots × sweep wall
	BusyS   float64              `json:"busy_s"`   // Σ Backend.Run durations
	Stray   int                  `json:"stray"`    // cell spans outside any Run span
	DrainMs []float64            `json:"drain_ms"`

	SimRuns   int64 `json:"sim_runs"`
	SimInstrs int64 `json:"sim_instrs"`
	Errors    int64 `json:"cache_errors"`
	Retries   int   `json:"retries"`
	BytesIn   int64 `json:"bytes_in"`

	PlanUs   []float64 `json:"plan_us"`
	EncodeUs []float64 `json:"encode_us_per_cell"`
	DecodeUs []float64 `json:"decode_us_per_cell"`
	NDJSONUs []float64 `json:"ndjson_us_per_cell"`
	AllocMB  []float64 `json:"alloc_mb"`
	GCs      []float64 `json:"gc_cycles"`
}

func newLayerStats() *layerStats {
	return &layerStats{Spans: make(map[string][]float64), Self: make(map[string]float64)}
}

// merge folds another process's traced sweeps into l.
func (l *layerStats) merge(o *layerStats) {
	l.Sweeps += o.Sweeps
	for k, v := range o.Spans {
		l.Spans[k] = append(l.Spans[k], v...)
	}
	for k, v := range o.Self {
		l.Self[k] += v
	}
	l.SlotS += o.SlotS
	l.BusyS += o.BusyS
	l.Stray += o.Stray
	l.DrainMs = append(l.DrainMs, o.DrainMs...)
	l.SimRuns += o.SimRuns
	l.SimInstrs += o.SimInstrs
	l.Errors += o.Errors
	l.Retries += o.Retries
	l.BytesIn += o.BytesIn
	l.PlanUs = append(l.PlanUs, o.PlanUs...)
	l.EncodeUs = append(l.EncodeUs, o.EncodeUs...)
	l.DecodeUs = append(l.DecodeUs, o.DecodeUs...)
	l.NDJSONUs = append(l.NDJSONUs, o.NDJSONUs...)
	l.AllocMB = append(l.AllocMB, o.AllocMB...)
	l.GCs = append(l.GCs, o.GCs...)
}

// addSweep folds one traced sweep in: its spans, slot accounting, counter
// deltas, and timed calls on the sweep's own plan and ResultSet.
func (l *layerStats) addSweep(st *stack, out sweepOut, spans []span, plan vexsmt.Plan,
	mem0, mem1 *runtime.MemStats, sims, cacheErrs int64) {
	l.Sweeps++
	// Sweep-level calls (health probes) carry no cell ID and fall in the
	// sched row below, with every other moment no cell occupied a slot.
	self, stray := selfTimes(spans)
	l.Stray += stray
	for i, s := range spans {
		l.Spans[s.Name] = append(l.Spans[s.Name], float64(s.dur())/1e6)
		l.Self[s.Layer] += float64(self[i]) / 1e9
	}

	slots := float64(st.cfg.wl.slots)
	l.SlotS += slots * out.wall.Seconds()
	var busy float64
	lastStart := out.start
	for _, r := range out.runs {
		busy += r.end.Sub(r.start).Seconds()
		if r.start.After(lastStart) {
			lastStart = r.start
		}
	}
	l.BusyS += busy
	l.Self["sched"] += slots*out.wall.Seconds() - busy
	// The drain starts when the first cell still running after the last
	// dispatch finishes, leaving a slot idle for good.
	end := out.start.Add(out.wall)
	drainStart := end
	for _, r := range out.runs {
		if !r.end.Before(lastStart) && r.end.Before(drainStart) {
			drainStart = r.end
		}
	}
	l.DrainMs = append(l.DrainMs, float64(end.Sub(drainStart).Nanoseconds())/1e6)

	l.SimRuns += sims
	l.Errors += cacheErrs
	l.Retries += st.prog.Retries
	if st.client.traced != nil {
		l.BytesIn += st.client.traced.bytesIn.Swap(0)
	}
	l.AllocMB = append(l.AllocMB, float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20))
	l.GCs = append(l.GCs, float64(mem1.NumGC-mem0.NumGC))
	if out.rs == nil || len(out.rs.Cells) == 0 {
		return
	}
	cells := float64(len(out.rs.Cells))
	var instrs int64
	for _, c := range out.rs.Cells {
		instrs += c.Counters.Instrs
	}
	l.SimInstrs += int64(float64(instrs) * float64(sims) / cells)

	// The plan and schema layers, timed on this sweep's own plan and
	// results: plan expansion as the coordinator does it, the results
	// document's encode and decode, and the NDJSON stream decoder.
	if svc, err := vexsmt.New(vexsmt.WithScale(st.cfg.scale), vexsmt.WithSeed(st.cfg.seed)); err == nil {
		t0 := time.Now()
		if _, err := svc.PlanCells(plan); err == nil {
			l.PlanUs = append(l.PlanUs, usSince(t0))
		}
	}
	var doc bytes.Buffer
	t0 := time.Now()
	if err := vexsmt.EncodeResults(&doc, out.rs); err == nil {
		l.EncodeUs = append(l.EncodeUs, usSince(t0)/cells)
		t0 = time.Now()
		if _, err := vexsmt.DecodeResults(bytes.NewReader(doc.Bytes())); err == nil {
			l.DecodeUs = append(l.DecodeUs, usSince(t0)/cells)
		}
	}
	var nd bytes.Buffer
	enc := json.NewEncoder(&nd)
	for _, c := range out.rs.Cells {
		_ = enc.Encode(c) // bytes.Buffer writes cannot fail
	}
	_ = enc.Encode(map[string]any{"status": "done", "completed": len(out.rs.Cells), "cells": len(out.rs.Cells)})
	t0 = time.Now()
	if _, _, err := shard.DecodeResultStream(bytes.NewReader(nd.Bytes()), func(vexsmt.CellResult) {}); err == nil {
		l.NDJSONUs = append(l.NDJSONUs, usSince(t0)/cells)
	}
}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int    // samples behind the value; 0 for counts
	Note  string // how it was derived
}

// spanP returns the percentile of a span name's durations (ms) and their
// count, pooling every name given.
func (l *layerStats) spanP(p float64, names ...string) (float64, int) {
	var xs []float64
	for _, n := range names {
		xs = append(xs, l.Spans[n]...)
	}
	return percentile(xs, p), len(xs)
}

func (l *layerStats) count(names ...string) float64 {
	n := 0
	for _, name := range names {
		n += len(l.Spans[name])
	}
	return float64(n)
}

// layerMetrics derives the per-layer metrics reported in the result line
// (reported) and the ones only printed because their layer is bypassed on some
// workload (extra). Counts are per traced sweep.
func (l *layerStats) layerMetrics(openMs []float64, overheadPct float64) (reported, extra []metric) {
	sw := float64(max(l.Sweeps, 1))
	p := func(name, unit string, pct float64, scale float64, spans ...string) metric {
		v, n := l.spanP(pct, spans...)
		return metric{Name: name, Value: v * scale, Unit: unit, N: n}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits, misses := l.count("cache.get_hit"), l.count("cache.get_miss")
	fetchHits, fetches := l.count("fleet.fetch_hit"), l.count("fleet.fetch_hit", "fleet.fetch_miss")
	var requests float64
	for name, v := range l.Spans {
		if strings.HasPrefix(name, "server.") {
			requests += float64(len(v))
		}
	}

	reported = []metric{
		{Name: "cache.open_ms", Value: median(openMs), Unit: "ms", N: len(openMs)},
		p("cache.get_us_p50", "us", 50, 1e3, "cache.get_hit", "cache.get_miss"),
		{Name: "cache.hits", Value: hits / sw, Unit: "count"},
		{Name: "cache.misses", Value: misses / sw, Unit: "count"},
		{Name: "cache.puts", Value: l.count("cache.put", "cache.local.put") / sw, Unit: "count"},
		{Name: "cache.errors", Value: float64(l.Errors) / sw, Unit: "count"},
		{Name: "cache.hit_ratio", Value: ratio(hits, hits+misses), Unit: "ratio"},
		{Name: "sim.runs", Value: float64(l.SimRuns) / sw, Unit: "count"},
		{Name: "fleet.fetches", Value: fetches / sw, Unit: "count"},
		{Name: "fleet.fetch_hit_ratio", Value: ratio(fetchHits, fetches), Unit: "ratio"},
		p("server.submit_ms_p50", "ms", 50, 1, "server.submit"),
		p("server.stream_ms_p50", "ms", 50, 1, "server.stream"),
		p("server.healthz_ms_p50", "ms", 50, 1, "server.healthz"),
		{Name: "server.requests", Value: requests / sw, Unit: "count"},
		p("http.submit_rtt_ms_p50", "ms", 50, 1, "http.submit"),
		p("http.stream_rtt_ms_p50", "ms", 50, 1, "http.stream"),
		{Name: "http.bytes_in", Value: float64(l.BytesIn) / sw, Unit: "B"},
		p("shard.cell_rtt_ms_p50", "ms", 50, 1, "shard.run"),
		p("shard.cell_rtt_ms_p95", "ms", 95, 1, "shard.run"),
		{Name: "shard.retries", Value: float64(l.Retries) / sw, Unit: "count"},
		{Name: "sched.slot_busy_frac", Value: ratio(l.BusyS, l.SlotS), Unit: "ratio"},
		{Name: "sched.drain_ms", Value: median(l.DrainMs), Unit: "ms", N: len(l.DrainMs)},
		{Name: "plan.cells_us", Value: median(l.PlanUs), Unit: "us", N: len(l.PlanUs)},
		{Name: "schema.encode_us_per_cell", Value: median(l.EncodeUs), Unit: "us", N: len(l.EncodeUs)},
		{Name: "schema.decode_us_per_cell", Value: median(l.DecodeUs), Unit: "us", N: len(l.DecodeUs)},
		{Name: "ndjson.decode_us_per_cell", Value: median(l.NDJSONUs), Unit: "us", N: len(l.NDJSONUs)},
		{Name: "runtime.alloc_mb_per_sweep", Value: median(l.AllocMB), Unit: "MB", N: len(l.AllocMB)},
		{Name: "runtime.gc_cycles_per_sweep", Value: median(l.GCs), Unit: "count", N: len(l.GCs)},
		{Name: "trace.overhead_pct", Value: overheadPct, Unit: "%"},
	}
	for _, layer := range accountLayers {
		reported = append(reported, metric{Name: "share." + layer + "_pct", Value: 100 * ratio(l.Self[layer], l.SlotS), Unit: "%"})
	}

	simBusy := sum(l.Spans["sim.run"]) / 1e3
	extra = []metric{
		p("sim.cell_ms_p50", "ms", 50, 1, "sim.run"),
		p("sim.cell_ms_p95", "ms", 95, 1, "sim.run"),
		{Name: "sim.busy_s", Value: simBusy / sw, Unit: "s", Note: "per sweep"},
		{Name: "sim.instrs_per_s", Value: ratio(float64(l.SimInstrs), simBusy), Unit: "instr/s"},
		p("cache.get_hit_us_p50", "us", 50, 1e3, "cache.get_hit"),
		p("cache.get_miss_us_p50", "us", 50, 1e3, "cache.get_miss"),
		p("cache.put_us_p50", "us", 50, 1e3, "cache.put", "cache.local.put"),
		p("fleet.fetch_ms_p50", "ms", 50, 1, "fleet.fetch_hit", "fleet.fetch_miss"),
		p("fleet.fetch_ms_p95", "ms", 95, 1, "fleet.fetch_hit", "fleet.fetch_miss"),
		p("server.cache_get_ms_p50", "ms", 50, 1, "server.cache_get"),
	}
	return reported, extra
}
