package fleet_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/fleet"
)

func member(id, url string) fleet.Member {
	return fleet.Member{ID: id, URL: url, Capacity: 4, CacheEnabled: true,
		Workloads: "idct@" + strings.Repeat("a", 64)}
}

func TestRegistryLeaseLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	r := fleet.NewRegistry(fleet.WithTTL(10*time.Second), fleet.WithNow(clock))

	if _, err := r.Upsert(member("a", "http://a:1")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Upsert(member("b", "http://b:1")); err != nil {
		t.Fatal(err)
	}
	ms := r.Members()
	if len(ms) != 2 || ms[0].ID != "a" || ms[1].ID != "b" {
		t.Fatalf("members %+v, want [a b]", ms)
	}
	firstSeen := ms[0].FirstSeen

	// b heartbeats, a goes silent past the TTL: only b survives, and b's
	// FirstSeen is its original registration, not the refresh.
	now = now.Add(8 * time.Second)
	if _, err := r.Upsert(member("b", "http://b:1")); err != nil {
		t.Fatal(err)
	}
	now = now.Add(4 * time.Second) // a last seen 12s ago, b 4s ago
	ms = r.Members()
	if len(ms) != 1 || ms[0].ID != "b" {
		t.Fatalf("members %+v, want [b]", ms)
	}
	if !ms[0].FirstSeen.Equal(time.Unix(1000, 0)) {
		t.Fatalf("refresh moved FirstSeen to %v", ms[0].FirstSeen)
	}

	// A re-registration after expiry is a new lease: FirstSeen resets.
	now = now.Add(time.Minute)
	if _, err := r.Upsert(member("b", "http://b:1")); err != nil {
		t.Fatal(err)
	}
	if ms = r.Members(); ms[0].FirstSeen.Equal(firstSeen) {
		t.Fatal("expired member kept its old FirstSeen")
	}

	r.Remove("b")
	if ms = r.Members(); len(ms) != 0 {
		t.Fatalf("members %+v after deregister, want none", ms)
	}
}

func TestRegistryRejectsBadMembers(t *testing.T) {
	r := fleet.NewRegistry()
	for _, m := range []fleet.Member{
		{URL: "http://a:1"},           // no id
		{ID: "a"},                     // no url
		{ID: "a", URL: "not-a-url"},   // no scheme/host
		{ID: "a", URL: "/just/path"},  // relative
		{ID: "a", URL: "host:8080/x"}, // scheme-less
	} {
		if _, err := r.Upsert(m); err == nil {
			t.Errorf("member %+v accepted", m)
		}
	}
	if len(r.Members()) != 0 {
		t.Fatal("rejected members leaked into the table")
	}
}

func TestRegistryRollup(t *testing.T) {
	r := fleet.NewRegistry()
	a := member("a", "http://a:1")
	a.Running = 2
	a.Simulations = 10
	a.Cache = vexsmt.CacheStats{Hits: 5, Misses: 3, PeerHits: 1}
	a.CacheSize = vexsmt.CacheSize{Entries: 7, Bytes: 700}
	b := member("b", "http://b:1")
	b.Simulations = 4
	b.CacheSize = vexsmt.CacheSize{Entries: 2, Bytes: 200}
	for _, m := range []fleet.Member{a, b} {
		if _, err := r.Upsert(m); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Rollup()
	want := fleet.Rollup{
		Members: 2, Capacity: 8, Running: 2, Simulations: 14,
		CacheEntries: 9, CacheBytes: 900, CacheHits: 5, CacheMisses: 3, PeerHits: 1,
	}
	if got != want {
		t.Fatalf("rollup %+v, want %+v", got, want)
	}
}

func TestRegistryHandler(t *testing.T) {
	r := fleet.NewRegistry(fleet.WithTTL(7*time.Second), fleet.WithHeartbeatInterval(2*time.Second))
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	body, _ := json.Marshal(member("a", "http://a:1"))
	resp, err := http.Post(ts.URL+"/v1/fleet/register", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var rr struct {
		IntervalSeconds float64        `json:"interval_seconds"`
		TTLSeconds      float64        `json:"ttl_seconds"`
		Members         []fleet.Member `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	if rr.IntervalSeconds != 2 || rr.TTLSeconds != 7 {
		t.Fatalf("lease terms %+v", rr)
	}
	if len(rr.Members) != 1 || rr.Members[0].ID != "a" {
		t.Fatalf("register response members %+v", rr.Members)
	}

	// The member list endpoint sees the registration, with the advertised
	// workload corpus (the coordinator's trace-placement signal) intact.
	members, err := fleet.FetchMembers(context.Background(), nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || members[0].ID != "a" {
		t.Fatalf("members %+v", members)
	}
	if !strings.HasPrefix(members[0].Workloads, "idct@") {
		t.Fatalf("workload advertisement lost in round-trip: %+v", members[0])
	}

	// Bad member bodies are 400s.
	resp, err = http.Post(ts.URL+"/v1/fleet/register", "application/json", strings.NewReader(`{"id":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad member: status %d, want 400", resp.StatusCode)
	}

	// Deregister empties the table.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/fleet/register?id=a", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("deregister: status %d, want 204", resp.StatusCode)
	}
	if members, err = fleet.FetchMembers(context.Background(), nil, ts.URL); err != nil || len(members) != 0 {
		t.Fatalf("members %+v err %v after deregister", members, err)
	}
}

func TestHeartbeatBeatsAndDeregisters(t *testing.T) {
	r := fleet.NewRegistry(fleet.WithHeartbeatInterval(time.Hour)) // Run must not beat twice
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	// A second member is already present; the beat must learn about it.
	if _, err := r.Upsert(member("other", "http://other:1")); err != nil {
		t.Fatal(err)
	}
	h, err := fleet.NewHeartbeat(ts.URL, func() fleet.Member { return member("self", "http://self:1") })
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Beat(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := h.Err(); err != nil {
		t.Fatalf("Err() %v after successful beat", err)
	}
	peers := h.Peers()
	if len(peers) != 1 || peers[0].ID != "other" {
		t.Fatalf("peers %+v, want [other]", peers)
	}

	// Run with a cancelled context still deregisters on the way out.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.Run(ctx)
	for _, m := range r.Members() {
		if m.ID == "self" {
			t.Fatal("member still registered after Run returned")
		}
	}
}

func TestHeartbeatSurvivesRegistryOutage(t *testing.T) {
	h, err := fleet.NewHeartbeat("http://127.0.0.1:1", func() fleet.Member {
		return member("self", "http://self:1")
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Beat(context.Background()); err == nil {
		t.Fatal("beat against nothing succeeded")
	}
	if h.Err() == nil {
		t.Fatal("Err() nil after failed beat")
	}
	if len(h.Peers()) != 0 {
		t.Fatal("peers invented without a successful beat")
	}
}

// peerServer stubs a daemon's /v1/cache/{key} with scripted entries and
// a checksum the test can deliberately corrupt.
func peerServer(t *testing.T, entries map[string][]byte, corrupt bool) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
		payload, ok := entries[key]
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		sum := sha256.Sum256(payload)
		digest := hex.EncodeToString(sum[:])
		if corrupt {
			digest = strings.Repeat("0", 64)
		}
		w.Header().Set("X-Vexsmt-Sha256", digest)
		w.Write(payload)
	}))
}

func TestFetcherVerifiesAndFailsOver(t *testing.T) {
	entry := []byte(`{"mix":"mmhh"}`)
	// If the fetcher failed to skip self, it would hit this server first
	// (ID order) and return the marker payload.
	selfSrv := peerServer(t, map[string][]byte{"k1": []byte("self-must-be-skipped")}, false)
	bad := peerServer(t, map[string][]byte{"k1": entry}, true) // corrupt digest
	good := peerServer(t, map[string][]byte{"k1": entry}, false)
	defer selfSrv.Close()
	defer bad.Close()
	defer good.Close()

	peers := func() []fleet.Member {
		return []fleet.Member{
			member("b-bad", bad.URL), // tried first among peers, fails checksum
			member("c-good", good.URL),
			member("a-self", selfSrv.URL),
		}
	}
	f := fleet.NewFetcher("a-self", peers)
	got, ok := f.Fetch("k1")
	if !ok || string(got) != string(entry) {
		t.Fatalf("fetch k1: ok=%v got=%q", ok, got)
	}
	// A fleet-wide miss is a miss.
	if _, ok := f.Fetch("absent"); ok {
		t.Fatal("fetched an entry nobody has")
	}
	// Keys that would escape the path are refused client-side.
	if _, ok := f.Fetch("a/b"); ok {
		t.Fatal("path-escaping key fetched")
	}
}
