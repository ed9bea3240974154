package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
)

func TestCacheGetServesChecksummedEntries(t *testing.T) {
	mem := cache.NewMemory(0)
	ts := httptest.NewServer(New(20000, 1, 2, WithCache(mem)).Handler())
	defer ts.Close()

	// Run one cell so the cache holds its payload under the canonical key.
	if res := runPlan(t, ts, `{"cells":[{"mix":"llll","technique":"SMT","threads":2}]}`); res.Status != "done" {
		t.Fatalf("plan: %+v", res)
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
