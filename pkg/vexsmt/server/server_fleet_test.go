package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
)

// healthzSnapshot decodes the fleet-facing /healthz fields.
type healthzSnapshot struct {
	OK             bool    `json:"ok"`
	Capacity       int     `json:"capacity"`
	Running        int     `json:"running"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Simulations    int64   `json:"simulations"`
	PrefetchActive int     `json:"prefetch_active"`
	Cache          struct {
		Enabled    bool  `json:"enabled"`
		Hits       int64 `json:"hits"`
		Misses     int64 `json:"misses"`
		Puts       int64 `json:"puts"`
		PeerHits   int64 `json:"peer_hits"`
		PeerMisses int64 `json:"peer_misses"`
		Entries    int64 `json:"entries"`
		Bytes      int64 `json:"bytes"`
	} `json:"cache"`
}

func getHealthz(t *testing.T, ts *httptest.Server) healthzSnapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthzSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestCacheGetServesChecksummedEntries(t *testing.T) {
	mem := cache.NewMemory(0)
	ts := httptest.NewServer(New(20000, 1, 2, WithCache(mem)).Handler())
	defer ts.Close()

	// Run one cell so the cache holds its payload under the canonical key.
	id := postPlan(t, ts, `{"cells":[{"mix":"llll","technique":"SMT","threads":2}]}`)
	if res := waitTerminal(t, ts, id); res.Status != "done" {
		t.Fatalf("plan %s: %+v", id, res)
	}
	meta := vexsmt.RunMeta{SchemaVersion: vexsmt.SchemaVersion, Seed: 1, Scale: 20000}
	key := vexsmt.CacheKey(meta, vexsmt.CellSpec{Mix: "llll", Technique: "SMT", Threads: 2})

	resp, err := http.Get(ts.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache get: status %d", resp.StatusCode)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	if got := resp.Header.Get("X-Vexsmt-Sha256"); got != hex.EncodeToString(sum[:]) {
		t.Fatalf("checksum header %q does not match payload digest", got)
	}
	// The served bytes are exactly the stored bytes.
	stored, ok := mem.Get(key)
	if !ok || !bytes.Equal(stored, payload) {
		t.Fatalf("served payload differs from stored entry (ok=%v)", ok)
	}

	// Misses and bad keys answer without touching the simulator.
	for path, want := range map[string]int{
		"/v1/cache/" + strings.Repeat("0", 64): http.StatusNotFound,
		"/v1/cache/":                           http.StatusBadRequest,
		"/v1/cache/a/b":                        http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestCacheGetWithoutCacheIs404(t *testing.T) {
	ts := testServer() // no cache configured
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/cache/" + strings.Repeat("a", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestCacheGetServesLocalTierOnly pins the anti-recursion contract: when
// the server's cache is a peer-fill wrapper, /v1/cache must consult the
// wrapped local store, never the peer hook — two cold daemons would
// otherwise bounce a missing key between each other.
func TestCacheGetServesLocalTierOnly(t *testing.T) {
	peerCalls := 0
	pf := cache.WithPeerFill(cache.NewMemory(0), func(string) ([]byte, bool) {
		peerCalls++
		return []byte("from-peer"), true
	})
	ts := httptest.NewServer(New(20000, 1, 2, WithCache(pf)).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/cache/" + strings.Repeat("b", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (local tier is cold)", resp.StatusCode)
	}
	if peerCalls != 0 {
		t.Fatalf("peer hook consulted %d times by /v1/cache", peerCalls)
	}
}

func TestPrefetchWarmsCacheInBackground(t *testing.T) {
	mem := cache.NewMemory(0)
	ts := httptest.NewServer(New(20000, 1, 2, WithCache(mem)).Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/prefetch", "application/json",
		strings.NewReader(`{"cells":[{"mix":"llll","technique":"SMT","threads":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("prefetch: status %d, want 202", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		h := getHealthz(t, ts)
		if h.PrefetchActive == 0 && h.Simulations > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prefetch never completed: %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sz := mem.CacheSize(); sz.Entries != 1 {
		t.Fatalf("cache holds %d entries after prefetch, want 1", sz.Entries)
	}
	// The warm footprint is a placement signal on /healthz.
	if h := getHealthz(t, ts); h.Cache.Entries != 1 || h.Cache.Bytes <= 0 {
		t.Fatalf("healthz cache sizing after prefetch: %+v", h.Cache)
	}

	// A plan landing after the warm-up recalls instead of simulating.
	before := getHealthz(t, ts).Simulations
	id := postPlan(t, ts, `{"cells":[{"mix":"llll","technique":"SMT","threads":2}]}`)
	res := waitTerminal(t, ts, id)
	if res.Status != "done" || len(res.Results.Cells) != 1 {
		t.Fatalf("warm plan: %+v", res)
	}
	if after := getHealthz(t, ts).Simulations; after != before {
		t.Fatalf("warm plan simulated (%d -> %d), want pure cache hits", before, after)
	}
}

func TestPrefetchRejectsBadRequests(t *testing.T) {
	mem := cache.NewMemory(0)
	ts := httptest.NewServer(New(20000, 1, 2, WithCache(mem)).Handler())
	defer ts.Close()
	for body, want := range map[string]int{
		`{"cells":[]}`: http.StatusBadRequest,
		`not json`:     http.StatusBadRequest,
		`{"cells":[{"mix":"zzzz","technique":"SMT","threads":2}]}`: http.StatusBadRequest,
	} {
		resp, err := http.Post(ts.URL+"/v1/prefetch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("prefetch %q: status %d, want %d", body, resp.StatusCode, want)
		}
	}

	// No cache: nothing to warm, and the daemon says so.
	ts2 := testServer()
	defer ts2.Close()
	resp, err := http.Post(ts2.URL+"/v1/prefetch", "application/json",
		strings.NewReader(`{"cells":[{"mix":"llll","technique":"SMT","threads":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cacheless prefetch: status %d, want 400", resp.StatusCode)
	}
}

func TestFleetHandlerMount(t *testing.T) {
	// A process hosting both the daemon and a registry mounts them on one
	// mux of its own; the daemon's routes and the registry's coexist.
	marker := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	mux := http.NewServeMux()
	mux.Handle("/", New(20000, 1, 2).Handler())
	mux.Handle("/v1/fleet/", marker)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	for path, want := range map[string]int{"/v1/fleet/members": http.StatusTeapot, "/healthz": http.StatusOK} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	// The daemon alone leaves the fleet prefix unrouted.
	ts2 := testServer()
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/v1/fleet/members")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unmounted fleet prefix: status %d, want 404", resp.StatusCode)
	}
}
