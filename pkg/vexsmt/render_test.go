package vexsmt

import (
	"strings"
	"testing"
)

func TestFigure13aTable(t *testing.T) {
	rows := []Fig13Row{
		{Name: "mcf", Class: "l", PaperIPCr: 0.96, PaperIPCp: 1.34, IPCr: 0.95, IPCp: 1.35},
	}
	s := figure13aTable(rows)
	if !strings.Contains(s, "mcf") || !strings.Contains(s, "0.95") || !strings.Contains(s, "1.34") {
		t.Fatalf("table missing content:\n%s", s)
	}
}

func TestFigure13bTable(t *testing.T) {
	s := figure13bTable()
	for _, label := range []string{"llll", "hhhh", "colorspace", "mcf"} {
		if !strings.Contains(s, label) {
			t.Errorf("table missing %q", label)
		}
	}
}

func TestSpeedupChart(t *testing.T) {
	series := []FigureSeries{{
		Label:     "CCSI AS over CSMT, 4-Thread",
		Technique: "CCSI AS",
		Baseline:  "CSMT",
		Threads:   4,
		Workloads: []string{"llll", "hhhh"},
		Pct:       []float64{5.0, -1.0},
		Avg:       2.0,
	}}
	s := speedupChart("Figure 14", series)
	if !strings.Contains(s, "llll") || !strings.Contains(s, "+5.00%") {
		t.Fatalf("chart missing rows:\n%s", s)
	}
	if !strings.Contains(s, "avg") {
		t.Fatal("chart missing average row")
	}
	if !strings.Contains(s, "-#") {
		t.Fatal("negative bar not marked")
	}
}

func TestIPCChart(t *testing.T) {
	points := []IPCPoint{
		{Technique: "CSMT", Threads: 2, IPC: 3.1},
		{Technique: "SMT", Threads: 2, IPC: 3.7},
		{Technique: "CSMT", Threads: 4, IPC: 4.4},
	}
	s := ipcChart(points)
	if !strings.Contains(s, "2-Thread") || !strings.Contains(s, "4-Thread") {
		t.Fatalf("chart missing thread sections:\n%s", s)
	}
	if !strings.Contains(s, "CSMT") || !strings.Contains(s, "3.100") {
		t.Fatalf("chart missing bars:\n%s", s)
	}
}

func TestHeadlineTable(t *testing.T) {
	s := headlineTable([]FigureSeries{
		{Label: "CCSI AS over CSMT (4T)", Technique: "CCSI AS", Baseline: "CSMT", Threads: 4, Avg: 6.3},
		{Label: "SMT over CSMT (4T)", Technique: "SMT", Baseline: "CSMT", Threads: 4, Avg: 9.9},
	})
	if !strings.Contains(s, "+6.30%") || !strings.Contains(s, "+7.50%") {
		t.Fatalf("headline table wrong:\n%s", s)
	}
	if strings.Contains(s, "SMT over CSMT") {
		t.Fatalf("headline table lists a series the paper does not report:\n%s", s)
	}
}

// figureSeriesKeys enumerates the series of one speedup figure in its
// documented order (thread-major, then the figure's technique order),
// with only the comparison key filled in.
func figureSeriesKeys(fig string) []FigureSeries {
	f := speedupFigures[fig]
	var out []FigureSeries
	for _, threads := range paperThreads {
		for _, tech := range f.techs {
			out = append(out, FigureSeries{Technique: tech.Name(), Baseline: f.baseline.Name(), Threads: threads})
		}
	}
	return out
}

func TestPaperAverages(t *testing.T) {
	// Every series the figure table plans has a paper average, and the
	// paper reports no others.
	n := 0
	for fig, want := range map[string]int{"14": 4, "15": 8} {
		keys := figureSeriesKeys(fig)
		if len(keys) != want {
			t.Fatalf("figure %s has %d series, want %d", fig, len(keys), want)
		}
		for _, s := range keys {
			if _, ok := paperAverage(s); !ok {
				t.Errorf("figure %s: no paper average for %s over %s %dT", fig, s.Technique, s.Baseline, s.Threads)
			}
		}
		n += len(keys)
	}
	if len(paperAverages) != n {
		t.Fatalf("%d paper averages for %d figure series", len(paperAverages), n)
	}
}

func TestPaperAverageKeyedLookup(t *testing.T) {
	// The paper's reported Figure 14/15 values, keyed by comparison.
	cases := []struct {
		tech, baseline string
		threads        int
		want           float64
	}{
		{"CCSI NS", "CSMT", 2, 6.1},
		{"CCSI AS", "CSMT", 2, 8.7},
		{"CCSI NS", "CSMT", 4, 3.5},
		{"CCSI AS", "CSMT", 4, 7.5},
		{"COSI NS", "SMT", 2, 7.5},
		{"COSI AS", "SMT", 2, 9.8},
		{"OOSI NS", "SMT", 2, 8.2},
		{"OOSI AS", "SMT", 2, 13.0},
		{"COSI NS", "SMT", 4, 6.4},
		{"COSI AS", "SMT", 4, 9.4},
		{"OOSI NS", "SMT", 4, 7.9},
		{"OOSI AS", "SMT", 4, 15.7},
	}
	for _, c := range cases {
		got, ok := paperAverage(FigureSeries{Technique: c.tech, Baseline: c.baseline, Threads: c.threads})
		if !ok || got != c.want {
			t.Errorf("paperAverage(%s, %s, %d) = %v, %v; want %v",
				c.tech, c.baseline, c.threads, got, ok, c.want)
		}
	}
	// Series the paper does not report must not silently match.
	if _, ok := paperAverage(FigureSeries{Technique: "SMT", Baseline: "CSMT", Threads: 4}); ok {
		t.Error("unreported series returned a paper average")
	}
}

func TestPaperAverageMatchesSeriesOrder(t *testing.T) {
	// Keyed lookup must agree with the documented positional order of
	// Figure 15's series (2T: COSI NS, COSI AS, OOSI NS, OOSI AS; then 4T).
	positional := []float64{7.5, 9.8, 8.2, 13.0, 6.4, 9.4, 7.9, 15.7}
	for i, s := range figureSeriesKeys("15") {
		keyed, ok := paperAverage(s)
		if !ok || keyed != positional[i] {
			t.Errorf("series %d (%s %dT): keyed %v (ok=%v), positional %v",
				i, s.Technique, s.Threads, keyed, ok, positional[i])
		}
	}
}

func TestBarClamp(t *testing.T) {
	if len(bar(1e9, 1)) > 61 {
		t.Fatal("bar not clamped")
	}
}
