package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// BENCHMARK.json records the benchmark's contract: its workloads and every
// metric the result line carries, by name and unit. It must say what the
// code does.
func TestContractMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit, Why string }
	var c struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}

	same := func(kind string, want []named, got []metric) {
		t.Helper()
		units := make(map[string]string)
		for _, m := range got {
			units[m.Name] = m.Unit
		}
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the result line carries %d", kind, len(want), len(got))
		}
		for _, m := range want {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s): the result line has unit %q (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd(&runStats{}))
	reported, _ := newLayerStats().layerMetrics(nil, 0)
	same("per_layer", c.PerLayer, reported)
}
