package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vexsmt/pkg/vexsmt"
)

// smokeConfig runs a workload at the tests' tiny scale for a fraction of a
// second, against the golden digests kept for that scale.
func smokeConfig(t *testing.T, name string, trace bool) runConfig {
	t.Helper()
	wl, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{wl: wl, seed: 1, scale: testScale, seconds: 0.2, trace: trace,
		corpus: filepath.Join("..", "examples", "corpus"), dir: t.TempDir()}
	if name != "cold-sweep" {
		if err := prime(context.Background(), cfg); err != nil {
			t.Fatalf("prime: %v", err)
		}
	}
	return cfg
}

func TestSmokeWorkloads(t *testing.T) {
	for _, name := range []string{"cold-sweep", "warm-sweep", "peer-sweep"} {
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(t, name, false)
			res, err := measure(context.Background(), cfg, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Problems) > 0 || res.Failed != 0 || res.Attempts == 0 || len(res.Sweeps) == 0 {
				t.Fatalf("clean run: problems %v, failed %d of %d attempts, %d sweeps",
					res.Problems, res.Failed, res.Attempts, len(res.Sweeps))
			}
			want := 144
			if name == "cold-sweep" {
				want = 208
			}
			if res.Cells != want || res.Attempts != want*len(res.Sweeps) {
				t.Errorf("cells %d, attempts %d over %d sweeps; want %d cells each", res.Cells, res.Attempts, len(res.Sweeps), want)
			}

			// A result that changed by one simulated instruction must fail
			// the run, not score.
			cfg.dir = t.TempDir()
			if name != "cold-sweep" {
				cfg = smokeConfig(t, name, false)
			}
			cfg.tamper = func(rs *vexsmt.ResultSet) { rs.Cells[len(rs.Cells)/2].Counters.Instrs++ }
			res, err = measure(context.Background(), cfg, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Problems) == 0 || !strings.Contains(res.Problems[0], "export digest") || res.Failed < want {
				t.Fatalf("tampered run: problems %v, failed %d; want a digest failure failing every cell", res.Problems, res.Failed)
			}
			var out bytes.Buffer
			if code := report(&out, cfg, 1, aggregate([]*childResult{res}, nil)); code == 0 {
				t.Error("report exit code 0 for a tampered run")
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil || line.Correct {
				t.Errorf("last line %q: want a result with correct=false (err %v)", lines[len(lines)-1], err)
			}
		})
	}
}

// A traced run's accounting covers the sweeps' slot time exactly, and its
// result line carries every per-layer metric.
func TestSmokeTracedAccounting(t *testing.T) {
	for _, name := range []string{"warm-sweep", "peer-sweep"} {
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(t, name, true)
			cfg.spans = filepath.Join(t.TempDir(), "spans.json")
			res, err := measure(context.Background(), cfg, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			l := res.Layer
			if len(res.Problems) > 0 || l == nil || l.Sweeps == 0 || len(res.Sweeps) == 0 {
				t.Fatalf("traced run: problems %v, layer %v, %d untraced sweeps", res.Problems, l, len(res.Sweeps))
			}
			var total float64
			for _, layer := range accountLayers {
				total += l.Self[layer]
			}
			if math.Abs(total-l.SlotS) > 1e-6*l.SlotS || l.Stray != 0 {
				t.Errorf("layer self times sum to %g s, slot time %g s, %d stray spans", total, l.SlotS, l.Stray)
			}
			if l.Self["cache"] <= 0 || l.Self["server"] <= 0 || l.Self["http"] <= 0 {
				t.Errorf("cache/server/http self times %v: want every layer on the path measured", l.Self)
			}
			if name == "peer-sweep" && l.Self["fleet"] <= 0 {
				t.Error("peer sweep has no fleet time")
			}
			reported, _ := l.layerMetrics(res.OpenMs, 0)
			if len(reported) != 36 {
				t.Errorf("%d per-layer metrics, want 36", len(reported))
			}
		})
	}
}
