package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// runStats is one run's measuring processes folded together, with every
// timing scaled to the reference host speed (see hostspeed.go).
type runStats struct {
	setup     []float64 // every set-up
	sweeps    []float64 // untraced sweeps
	traced    []float64 // traced sweeps
	cellMs    []float64 // every Backend.Run of the untraced sweeps, pooled
	rawSweeps []float64 // untraced sweeps as measured
	factors   []float64 // each untraced sweep's speed factor
	probes    int       // probe samples taken

	cells, attempts, failed int
	instrs                  int64 // Σ Counters.Instrs of one sweep
	problems                []string
	openMs, loadMs          []float64
	layer                   *layerStats
	rssMB                   float64 // median peak RSS of the measuring processes
}

// aggregate folds the measuring processes of one run together, scaling each
// timing by the host's speed around it as the probe samples show.
func aggregate(children []*childResult, samples []probeSample) *runStats {
	agg := &runStats{probes: len(samples)}
	norm := func(t timing) float64 { return t.S * speedFactor(samples, t.From, t.To) }
	var rss []float64
	for _, c := range children {
		for _, t := range c.Setup {
			agg.setup = append(agg.setup, norm(t))
		}
		for i, t := range c.Sweeps {
			f := speedFactor(samples, t.From, t.To)
			agg.sweeps = append(agg.sweeps, t.S*f)
			agg.rawSweeps = append(agg.rawSweeps, t.S)
			agg.factors = append(agg.factors, f)
			for _, ms := range c.CellMs[i] {
				agg.cellMs = append(agg.cellMs, ms*f)
			}
		}
		for _, t := range c.TracedSweeps {
			agg.traced = append(agg.traced, norm(t))
		}
		agg.openMs = append(agg.openMs, c.OpenMs...)
		agg.loadMs = append(agg.loadMs, c.LoadMs...)
		agg.attempts += c.Attempts
		agg.failed += c.Failed
		agg.problems = append(agg.problems, c.Problems...)
		agg.instrs, agg.cells = c.Instrs, c.Cells
		rss = append(rss, float64(c.MaxRSSKB)/1024)
		if c.Layer != nil {
			if agg.layer == nil {
				agg.layer = newLayerStats()
			}
			agg.layer.merge(c.Layer)
		}
	}
	agg.rssMB = median(rss)
	return agg
}

// endToEnd derives the end-to-end metrics from the untraced sweeps.
func endToEnd(agg *runStats) []metric {
	sweep := median(agg.sweeps)
	n := len(agg.cellMs)
	p95Note := fmt.Sprintf("of %d pooled cells", n)
	if p, beyond, ok := tailPercentile(n); ok {
		p95Note += fmt.Sprintf("; the highest percentile with >= %d samples beyond it is p%g (%d beyond)", minBeyond, p, beyond)
	}
	instrRate := 0.0
	if sweep > 0 {
		instrRate = float64(agg.instrs) / sweep
	}
	return []metric{
		{Name: "setup_s", Value: median(agg.setup), Unit: "s", N: len(agg.setup), Note: "median set-up"},
		{Name: "sweep_s", Value: sweep, Unit: "s", N: len(agg.sweeps), Note: "median Coordinator.Collect wall time"},
		{Name: "cell_ms_p50", Value: percentile(agg.cellMs, 50), Unit: "ms", N: n, Note: "median Backend.Run time"},
		{Name: "cell_ms_p95", Value: percentile(agg.cellMs, 95), Unit: "ms", N: n, Note: p95Note},
		{Name: "sim_instrs_per_s", Value: instrRate, Unit: "instr/s", N: len(agg.sweeps), Note: "sum of Counters.Instrs / sweep_s"},
		{Name: "peak_rss_mb", Value: agg.rssMB, Unit: "MB", Note: "median max RSS of the measuring processes"},
	}
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable report and the result line, and
// returns the exit code: non-zero when any check failed.
func report(w io.Writer, cfg runConfig, seed int64, agg *runStats) int {
	fmt.Fprintf(w, "perfbench %s: seed %d (plan seed %d), scale 1/%d, GOMAXPROCS %d, %d cell(s) in flight, closed loop with 1 client\n",
		cfg.wl.name, seed, cfg.seed, cfg.scale, cfg.wl.procs, cfg.wl.slots)
	fmt.Fprintf(w, "  %s\n", cfg.wl.why)
	sweeps := len(agg.sweeps) + len(agg.traced)
	failRatio := 0.0
	if agg.attempts > 0 {
		failRatio = float64(agg.failed) / float64(agg.attempts)
	}
	fmt.Fprintf(w, "  %d cells per sweep, %d sweeps (%d traced); attempted %d cells, failed %d; fail_ratio %g\n",
		agg.cells, sweeps, len(agg.traced), agg.attempts, agg.failed, failRatio)
	for _, p := range agg.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "host speed: %d probe samples; speed factor per sweep min %.3f median %.3f max %.3f; sweep_s as measured %.6g s\n",
		agg.probes, minOf(agg.factors), median(agg.factors), maxOf(agg.factors), median(agg.rawSweeps))

	e2e := endToEnd(agg)
	fmt.Fprintf(w, "end-to-end (untraced sweeps, scaled to a host where the probe takes %g ms):\n", probeRef*1e3)
	printMetrics(w, e2e)

	res := result{Correct: len(agg.problems) == 0 && agg.attempts > 0, Attempted: agg.attempts, Failed: agg.failed,
		Metrics: make(map[string]valueUnit)}
	reported := e2e
	if cfg.trace {
		reported = traceReport(w, agg)
	}
	for _, m := range reported {
		res.Metrics[m.Name] = valueUnit{Value: m.Value, Unit: m.Unit}
	}
	line, _ := json.Marshal(res) // plain structs and finite floats always marshal
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// traceReport prints the per-layer metrics, the accounting table, the
// tracing overhead and the layer map, and returns the per-layer metrics of
// the result line.
func traceReport(w io.Writer, agg *runStats) []metric {
	l := agg.layer
	if l == nil {
		l = newLayerStats()
	}
	overhead := 0.0
	if u := median(agg.sweeps); u > 0 {
		overhead = 100 * (median(agg.traced) - u) / u
	}
	reported, extra := l.layerMetrics(agg.openMs, overhead)
	extra = append(extra, metric{Name: "wstore.load_ms", Value: median(agg.loadMs), Unit: "ms", N: len(agg.loadMs)})

	fmt.Fprintf(w, "per layer (%d traced sweeps; counts are per sweep):\n", l.Sweeps)
	printMetrics(w, reported)
	fmt.Fprintln(w, "per layer, where the workload reaches the layer:")
	for _, m := range extra {
		if m.N == 0 && m.Value == 0 {
			fmt.Fprintf(w, "  %-28s n/a (layer bypassed on this workload)\n", m.Name)
			continue
		}
		printMetrics(w, []metric{m})
	}

	fmt.Fprintf(w, "accounting: share of sweep slot time (slots x wall = %.4f s per sweep), by layer self time:\n",
		l.SlotS/float64(max(l.Sweeps, 1)))
	total := 0.0
	for _, layer := range accountLayers {
		share := 0.0
		if l.SlotS > 0 {
			share = 100 * l.Self[layer] / l.SlotS
		}
		total += share
		fmt.Fprintf(w, "  %-8s %9.3f ms/sweep  %6.2f%%\n", layer, 1e3*l.Self[layer]/float64(max(l.Sweeps, 1)), share)
	}
	fmt.Fprintf(w, "  %-8s %28.2f%%\n", "total", total)
	if l.Stray > 0 {
		fmt.Fprintf(w, "  (%d cell spans fell outside any Backend.Run span and are not counted)\n", l.Stray)
	}
	fmt.Fprintf(w, "tracing overhead: traced sweep_s %.4f s vs untraced %.4f s: %+.2f%%\n",
		median(agg.traced), median(agg.sweeps), overhead)

	fmt.Fprintln(w, "layer -> end-to-end metric -> workload it should move:")
	for _, r := range layerMap {
		fmt.Fprintf(w, "  %-12s %s\n  %-12s   moves %s\n", r.layer, r.metrics, "", r.moves)
	}
	return reported
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		line := fmt.Sprintf("  %-28s %14.6g %-8s", m.Name, m.Value, m.Unit)
		var notes []string
		if m.N > 0 {
			notes = append(notes, fmt.Sprintf("n=%d", m.N))
		}
		if m.Note != "" {
			notes = append(notes, m.Note)
		}
		if len(notes) > 0 {
			line += " (" + strings.Join(notes, "; ") + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}
