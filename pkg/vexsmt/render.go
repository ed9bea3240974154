package vexsmt

import (
	"context"
	"fmt"
	"strings"
)

// RenderFigure computes one figure and returns its text rendering — the
// same tables and charts paperbench prints, in the layout of the paper's
// tables and figures. Grid figures (14, 15, 16) read memoized cells where
// available, so a Prefetch or Stream of the same plan makes rendering
// instantaneous.
func (s *Service) RenderFigure(ctx context.Context, fig string) (string, error) {
	switch fig {
	case "13a":
		rows, err := s.Figure13a(ctx)
		if err != nil {
			return "", err
		}
		return figure13aTable(rows), nil
	case "13b":
		return figure13bTable(), nil
	case "14", "15":
		series, err := s.speedupFigure(ctx, fig)
		if err != nil {
			return "", err
		}
		return speedupChart(speedupFigures[fig].title, series) + "\n" + headlineTable(series), nil
	case "16":
		points, err := s.Figure16(ctx)
		if err != nil {
			return "", err
		}
		return ipcChart(points), nil
	}
	return "", fmt.Errorf("vexsmt: unknown figure %q", fig)
}

// figure13aTable renders measured-vs-paper benchmark IPC.
func figure13aTable(rows []Fig13Row) string {
	var b strings.Builder
	b.WriteString("Figure 13(a): Benchmarks — single-thread IPC (measured vs paper)\n")
	b.WriteString(fmt.Sprintf("%-12s %-4s | %7s %7s | %7s %7s | %6s %6s\n",
		"benchmark", "ilp", "IPCr", "IPCp", "paper-r", "paper-p", "r-err%", "p-err%"))
	b.WriteString(strings.Repeat("-", 76) + "\n")
	for _, r := range rows {
		rErr := pctErr(r.IPCr, r.PaperIPCr)
		pErr := pctErr(r.IPCp, r.PaperIPCp)
		b.WriteString(fmt.Sprintf("%-12s %-4s | %7.2f %7.2f | %7.2f %7.2f | %+6.1f %+6.1f\n",
			r.Name, r.Class, r.IPCr, r.IPCp, r.PaperIPCr, r.PaperIPCp, rErr, pErr))
	}
	return b.String()
}

func pctErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return (got/want - 1) * 100
}

// figure13bTable renders the workload mixes.
func figure13bTable() string {
	var b strings.Builder
	b.WriteString("Figure 13(b): Workloads\n")
	b.WriteString(fmt.Sprintf("%-6s %-12s %-12s %-12s %-12s\n",
		"mix", "thread 0", "thread 1", "thread 2", "thread 3"))
	b.WriteString(strings.Repeat("-", 58) + "\n")
	for _, m := range paperMixes {
		b.WriteString(fmt.Sprintf("%-6s %-12s %-12s %-12s %-12s\n",
			m.Label, m.Benchmarks[0], m.Benchmarks[1], m.Benchmarks[2], m.Benchmarks[3]))
	}
	return b.String()
}

// speedupChart renders speedup series as per-workload rows with
// horizontal bars, mirroring the grouped bars of Figures 14/15.
func speedupChart(title string, series []FigureSeries) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, s := range series {
		b.WriteString("\n" + s.Label + "\n")
		for i, w := range s.Workloads {
			b.WriteString(fmt.Sprintf("  %-6s %+7.2f%% %s\n", w, s.Pct[i], bar(s.Pct[i], 2)))
		}
		b.WriteString(fmt.Sprintf("  %-6s %+7.2f%% %s\n", "avg", s.Avg, bar(s.Avg, 2)))
	}
	return b.String()
}

// ipcChart renders Figure 16: absolute IPC bars for every technique at
// each thread count.
func ipcChart(points []IPCPoint) string {
	var b strings.Builder
	b.WriteString("Figure 16: Performance of all multithreading techniques (avg IPC)\n")
	lastThreads := -1
	for _, p := range points {
		if p.Threads != lastThreads {
			b.WriteString(fmt.Sprintf("\n%d-Thread\n", p.Threads))
			lastThreads = p.Threads
		}
		b.WriteString(fmt.Sprintf("  %-8s %6.3f %s\n", p.Technique, p.IPC, bar(p.IPC, 8)))
	}
	return b.String()
}

// bar renders a non-negative horizontal bar; negative values render with a
// leading minus marker so regressions are visible.
func bar(v float64, unitsPerChar float64) string {
	n := int(v/unitsPerChar*8 + 0.5)
	if n < 0 {
		return "-" + strings.Repeat("#", min(-n, 60))
	}
	return strings.Repeat("#", min(n, 60))
}

// headlineTable renders each measured series' average next to the
// paper's reported one, matched by the series' comparison key rather than
// by position. Series the paper reports no average for are skipped.
func headlineTable(series []FigureSeries) string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("%-36s %10s %10s\n", "series", "measured", "paper"))
	b.WriteString(strings.Repeat("-", 58) + "\n")
	for _, s := range series {
		if paper, ok := paperAverage(s); ok {
			b.WriteString(fmt.Sprintf("%-36s %+9.2f%% %+9.2f%%\n", s.Label, s.Avg, paper))
		}
	}
	return b.String()
}

// seriesKey identifies one speedup series of Figures 14/15 by what it
// compares, not by its position in any particular iteration order.
type seriesKey struct {
	technique, baseline string
	threads             int
}

// paperAverages holds the paper's reported average speedups for every
// series of Figures 14 and 15, keyed by comparison.
var paperAverages = map[seriesKey]float64{
	// Figure 14: CCSI over CSMT.
	{"CCSI NS", "CSMT", 2}: 6.1,
	{"CCSI AS", "CSMT", 2}: 8.7,
	{"CCSI NS", "CSMT", 4}: 3.5,
	{"CCSI AS", "CSMT", 4}: 7.5,
	// Figure 15: COSI and OOSI over SMT.
	{"COSI NS", "SMT", 2}: 7.5,
	{"COSI AS", "SMT", 2}: 9.8,
	{"OOSI NS", "SMT", 2}: 8.2,
	{"OOSI AS", "SMT", 2}: 13.0,
	{"COSI NS", "SMT", 4}: 6.4,
	{"COSI AS", "SMT", 4}: 9.4,
	{"OOSI NS", "SMT", 4}: 7.9,
	{"OOSI AS", "SMT", 4}: 15.7,
}

// paperAverage returns the paper's reported average speedup for a
// measured series, and whether the paper reports that series at all.
func paperAverage(s FigureSeries) (float64, bool) {
	v, ok := paperAverages[seriesKey{s.Technique, s.Baseline, s.Threads}]
	return v, ok
}
