package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vexsmt/internal/isa"
	"vexsmt/internal/synth"
	"vexsmt/internal/trace"
)

// writeTestCorpus records one synthetic profile as a .vxt trace — the
// corpus a vexsmtd -workload-dir daemon would serve. The trace lands in
// the process-shared workload store when the server loads it, which is
// exactly the production arrangement (content-addressed, load-once).
func writeTestCorpus(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range names {
		p, ok := synth.ByName(name)
		if !ok {
			t.Fatalf("no synthetic profile %q", name)
		}
		gen := synth.MustNewGenerator(p, isa.ST200x4)
		instrs := trace.Record(gen, 2000)
		f, err := os.Create(filepath.Join(dir, name+".vxt"))
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Write(f, name, isa.ST200x4.Clusters, instrs); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestServerWorkloadCorpus(t *testing.T) {
	dir := writeTestCorpus(t, "idct")
	srv := New(20000, 1, 2, WithWorkloads(dir))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// /healthz advertises the loaded corpus as content references — what
	// the daemon heartbeats to the fleet registry.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Corpus []string `json:"corpus"`
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Corpus) != 1 || !strings.HasPrefix(h.Corpus[0], "idct@") {
		t.Fatalf("healthz corpus = %v, want [idct@<hash>]", h.Corpus)
	}

	// A trace-backed plan runs to completion, every cell carrying the full
	// workload reference.
	res := runPlan(t, ts, `{"workloads":["idct"]}`)
	if res.Status != "done" || res.Error != "" {
		t.Fatalf("plan: status %s error %q", res.Status, res.Error)
	}
	if len(res.Results.Cells) != 16 { // 8 techniques x {2,4} threads
		t.Fatalf("%d cells, want 16", len(res.Results.Cells))
	}
	for _, c := range res.Results.Cells {
		if c.Mix != "" || !strings.HasPrefix(c.Workload, "idct@") {
			t.Fatalf("cell identity wrong: %+v", c)
		}
	}

	// An unknown workload is the plan's fault: 400, with the corpus named.
	badResp, err := http.Post(ts.URL+"/v1/plans", "application/json",
		strings.NewReader(`{"workloads":["nosuch"]}`))
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown workload: status %d, want 400", badResp.StatusCode)
	}
}

func TestServerBadCorpusDirIs500(t *testing.T) {
	// An unreadable corpus is the daemon's misconfiguration, not the
	// client's plan: 500, not 400, and the daemon keeps serving synthetic
	// plans that never touch the corpus.
	srv := New(20000, 1, 2, WithWorkloads(filepath.Join(t.TempDir(), "nope")))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/plans", "application/json",
		strings.NewReader(`{"workloads":["idct"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("bad corpus dir: status %d, want 500", resp.StatusCode)
	}
}
