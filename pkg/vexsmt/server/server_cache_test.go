package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vexsmt/pkg/vexsmt/cache"
)

// TestServerCacheWarmPlansAndHealthz: two submissions of the same cells
// share the server's cache (the second is all hits, visible on /healthz),
// a cache=off submission bypasses it, and a bogus cache value is a 400.
func TestServerCacheWarmPlansAndHealthz(t *testing.T) {
	mem := cache.NewMemory(0)
	ts := httptest.NewServer(New(20000, 1, 2, WithCache(mem)).Handler())
	defer ts.Close()

	const body = `{"cells":[
		{"mix":"mmhh","technique":"CSMT","threads":4},
		{"mix":"mmhh","technique":"CCSI AS","threads":4}]}`

	cold := runPlan(t, ts, body)
	if cold.Status != "done" {
		t.Fatalf("cold plan %q", cold.Status)
	}
	if st := mem.Stats(); st.Puts != 2 || st.Hits != 0 {
		t.Fatalf("cold cache stats %+v", st)
	}
	for _, c := range cold.Results.Cells {
		if c.Cached {
			t.Fatalf("cold cell flagged cached: %+v", c)
		}
	}

	warm := runPlan(t, ts, body)
	if warm.Status != "done" {
		t.Fatalf("warm plan %q", warm.Status)
	}
	if st := mem.Stats(); st.Hits != 2 {
		t.Fatalf("warm cache stats %+v, want 2 hits", st)
	}
	for i, c := range warm.Results.Cells {
		if !c.Cached {
			t.Fatalf("warm cell not flagged cached: %+v", c)
		}
		// Byte-level identity is covered by the property tests; here the
		// structural fields must agree exactly.
		w := cold.Results.Cells[i]
		c.Cached = false
		if c != w {
			t.Fatalf("warm cell differs from cold:\ncold: %+v\nwarm: %+v", w, c)
		}
	}

	// cache=off bypasses the shared cache entirely.
	before := mem.Stats()
	off := runPlan(t, ts, `{"cache":"off","cells":[
		{"mix":"mmhh","technique":"CSMT","threads":4}]}`)
	if off.Status != "done" {
		t.Fatalf("cache=off plan %q", off.Status)
	}
	if after := mem.Stats(); after != before {
		t.Fatalf("cache=off plan touched the cache: %+v -> %+v", before, after)
	}

	// /healthz surfaces the cache counters.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Cache struct {
			Enabled bool  `json:"enabled"`
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Puts    int64 `json:"puts"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if !hz.Cache.Enabled || hz.Cache.Hits != 2 || hz.Cache.Puts != 2 {
		t.Fatalf("healthz cache %+v", hz.Cache)
	}

	// An unknown cache mode is a 400, not a silent default.
	badResp, err := http.Post(ts.URL+"/v1/plans", "application/json",
		strings.NewReader(`{"cache":"sideways","figures":["14"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cache=sideways: status %d, want 400", badResp.StatusCode)
	}
}

// TestCapacityScalesWithParallelism: a daemon built for 16-way simulation
// must admit (and advertise) 16 concurrent plans, or a coordinator's
// one-cell submissions would idle most of its cores.
func TestCapacityScalesWithParallelism(t *testing.T) {
	ts := httptest.NewServer(New(20000, 1, 16).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Capacity int `json:"capacity"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Capacity != 16 {
		t.Fatalf("capacity %d for parallelism 16, want 16", hz.Capacity)
	}
}

// TestServerWithoutCacheHealthz: a cache-less server reports enabled:false
// and still accepts cache=on submissions (they just run uncached).
func TestServerWithoutCacheHealthz(t *testing.T) {
	ts := testServer()
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Cache struct {
			Enabled bool `json:"enabled"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Cache.Enabled {
		t.Fatal("cache reported enabled on a cache-less server")
	}
	res := runPlan(t, ts, `{"cache":"on","cells":[
		{"mix":"llll","technique":"SMT","threads":2}]}`)
	if res.Status != "done" {
		t.Fatalf("cache=on plan on cache-less server: %q", res.Status)
	}
}
