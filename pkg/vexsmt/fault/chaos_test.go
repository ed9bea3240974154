// Chaos property suite: full sweeps under heavy injected fault
// schedules must produce byte-identical results to clean runs — the
// determinism contract has to survive chaos, not just the happy path.
package fault_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
	"vexsmt/pkg/vexsmt/fault"
	"vexsmt/pkg/vexsmt/fleet"
	"vexsmt/pkg/vexsmt/resilience"
	"vexsmt/pkg/vexsmt/server"
	"vexsmt/pkg/vexsmt/shard"
)

// chaosScale keeps simulation-backed chaos runs fast; every assertion
// is bit-identity, never statistical.
const chaosScale = 50000

var chaosGrid = vexsmt.Plan{Figures: []string{"16"}}

// encodeCanonical returns rs's canonical encoding without mutating it.
func encodeCanonical(t *testing.T, rs *vexsmt.ResultSet) string {
	t.Helper()
	cp := &vexsmt.ResultSet{Meta: rs.Meta, Cells: append([]vexsmt.CellResult(nil), rs.Cells...)}
	cp.Canonicalize()
	var buf bytes.Buffer
	if err := vexsmt.EncodeResults(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func cleanBaseline(t *testing.T) string {
	t.Helper()
	svc, err := vexsmt.New(vexsmt.WithScale(chaosScale), vexsmt.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := svc.Collect(context.Background(), chaosGrid)
	if err != nil {
		t.Fatal(err)
	}
	return encodeCanonical(t, rs)
}

// fastPolicy is the chaos-test retry policy: the default shape with
// backoffs squeezed to keep wall clock down.
func fastPolicy(seed uint64) resilience.Policy {
	p := resilience.Default()
	p.Seed = seed
	p.BaseBackoff = time.Millisecond
	p.MaxBackoff = 4 * time.Millisecond
	return p
}

// quickChaos is Heavy with its soft delays squeezed, so the schedule
// stays aggressive without idling the test.
func quickChaos() fault.Profile {
	p := fault.Heavy()
	p.RequestDelay = time.Millisecond
	p.PeerFillDelay = time.Millisecond
	return p
}

// TestChaosSweepByteIdentical is the tentpole property: a two-daemon
// sweep with heavy transport faults on the coordinator side and cache
// faults inside each daemon produces byte-identical merged results to
// the clean single-process run, with zero lost cells. Retries (8, so 9
// attempts) strictly exceed the worst-case hard-fault count a cell can
// absorb — the per-identity budget (2) times its two identities (its
// stream-form submit to each of two backends) — and local fallback is
// armed so even a fully faulted placement round degrades to an
// identical local run rather than failing.
func TestChaosSweepByteIdentical(t *testing.T) {
	want := cleanBaseline(t)
	inj := fault.New(42, quickChaos())

	daemon := func(seed uint64) *httptest.Server {
		dinj := fault.New(seed, quickChaos())
		faulty := fault.NewCache(dinj, cache.NewMemory(4096))
		return httptest.NewServer(server.New(chaosScale, 1, 4, server.WithCache(faulty)).Handler())
	}
	a := daemon(7)
	defer a.Close()
	b := daemon(8)
	defer b.Close()

	client := fault.Client(inj, nil)
	var backends []shard.Backend
	for _, u := range []string{a.URL, b.URL} {
		be, err := shard.NewHTTP(u, shard.WithClient(client))
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, be)
	}
	coord, err := shard.New(shard.Config{
		Scale:         chaosScale,
		Seed:          1,
		Retries:       8,
		Policy:        fastPolicy(42),
		LocalFallback: true,
		Logf:          t.Logf,
	}, backends...)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := coord.Collect(context.Background(), chaosGrid)
	if err != nil {
		t.Fatalf("chaos sweep failed (%d faults had fired): %v", inj.Fired(), err)
	}
	if got := encodeCanonical(t, rs); got != want {
		t.Fatalf("chaos sweep output differs from the clean run (%d faults fired)", inj.Fired())
	}
	t.Logf("chaos sweep byte-identical; %d transport fault(s) fired", inj.Fired())
}

// TestChaosWarmRerunByteIdentical re-collects through the same faulty
// daemons: the second pass is served from their (still fault-wrapped)
// caches, and injected corruption must degrade to re-simulation, never
// to different bytes.
func TestChaosWarmRerunByteIdentical(t *testing.T) {
	want := cleanBaseline(t)
	dinj := fault.New(9, quickChaos())
	faulty := fault.NewCache(dinj, cache.NewMemory(4096))
	srv := httptest.NewServer(server.New(chaosScale, 1, 4, server.WithCache(faulty)).Handler())
	defer srv.Close()

	be, err := shard.NewHTTP(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := shard.New(shard.Config{Scale: chaosScale, Seed: 1, Policy: fastPolicy(9)}, be)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		rs, err := coord.Collect(context.Background(), chaosGrid)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if got := encodeCanonical(t, rs); got != want {
			t.Fatalf("pass %d differs from the clean run (%d cache faults fired)", pass, dinj.Fired())
		}
	}
	if dinj.Fired() == 0 {
		t.Fatal("heavy cache profile fired nothing over two grid passes")
	}
}

// TestLocalFallbackByteIdentical: with every backend dead, a
// LocalFallback coordinator degrades to in-process execution and still
// produces the clean run's bytes.
func TestLocalFallbackByteIdentical(t *testing.T) {
	want := cleanBaseline(t)
	be, err := shard.NewHTTP("http://127.0.0.1:9") // discard port: refuses instantly
	if err != nil {
		t.Fatal(err)
	}
	var degraded bool
	coord, err := shard.New(shard.Config{
		Scale:         chaosScale,
		Seed:          1,
		LocalFallback: true,
		Logf: func(format string, args ...any) {
			if strings.Contains(fmt.Sprintf(format, args...), "falling back to local execution") {
				degraded = true
			}
		},
	}, be)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := coord.Collect(context.Background(), chaosGrid)
	if err != nil {
		t.Fatalf("fallback run failed: %v", err)
	}
	if !degraded {
		t.Fatal("coordinator never reported the local fallback")
	}
	if got := encodeCanonical(t, rs); got != want {
		t.Fatal("local fallback output differs from the clean run")
	}
}

// stubRT answers every request with a fixed 200 body without dialing,
// so fault streams can be replayed against stable host names.
type stubRT struct{ body string }

func (s stubRT) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		Status: "200 OK", StatusCode: http.StatusOK,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Request: req,
		Body: io.NopCloser(strings.NewReader(s.body)),
	}, nil
}

// TestChaosScheduleReproducible drives the transport with the request
// mix of a sweep (streamed submits, health probes, heartbeats, peer fills)
// twice under one seed and once under another: same seed reproduces
// the identical fault schedule, a different seed does not.
func TestChaosScheduleReproducible(t *testing.T) {
	run := func(seed uint64) []string {
		p := quickChaos()
		p.MaxPerIdentity = 0 // raw streams: reproducibility, not termination
		inj := fault.New(seed, p)
		tr := fault.NewTransport(inj, stubRT{body: strings.Repeat(`{"cell":"x"}`+"\n", 100)})
		do := func(method, url string, body string) {
			var r io.Reader
			if body != "" {
				r = strings.NewReader(body)
			}
			req, err := http.NewRequest(method, url, r)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := tr.RoundTrip(req)
			if err != nil {
				return // injected drop/swallow: part of the schedule
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		for i := 0; i < 25; i++ {
			do("POST", "http://daemon-a/v1/plans", fmt.Sprintf(`{"cells":["c%d"]}`, i))
			do("GET", "http://daemon-a/healthz", "")
			do("POST", "http://registry/v1/fleet/register", `{"id":"daemon-a"}`)
			do("GET", fmt.Sprintf("http://daemon-b/v1/cache/key%d", i), "")
		}
		return inj.Schedule()
	}
	a, b := run(1234), run(1234)
	if len(a) == 0 {
		t.Fatal("heavy profile fired nothing over 100 requests")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("same seed, different schedules:\nrun1: %d fired\nrun2: %d fired", len(a), len(b))
	}
	if c := run(77); strings.Join(a, "\n") == strings.Join(c, "\n") {
		t.Fatal("different seeds produced the identical fault schedule")
	}
}

// TestPeerFillDegradesUnderChaos: a fetcher whose every peer request is
// dropped reports a miss promptly — the sweep simulates instead of
// stalling — and the same fetcher without faults serves the entry.
func TestPeerFillDegradesUnderChaos(t *testing.T) {
	entry := []byte(`{"ipc":1.5}`)
	sum := sha256.Sum256(entry)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Vexsmt-Sha256", hex.EncodeToString(sum[:]))
		w.Write(entry)
	}))
	defer peer.Close()
	peers := func() []fleet.Member {
		return []fleet.Member{{ID: "peer", URL: peer.URL, CacheEnabled: true}}
	}

	p := fault.Profile{DropRequest: 1} // uncapped: every request drops
	broken := fleet.NewFetcher("self", peers,
		fleet.WithFetchClient(fault.Client(fault.New(1, p), nil)))
	start := time.Now()
	if _, ok := broken.Fetch("somekey"); ok {
		t.Fatal("fully dropped peer traffic still produced a hit")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("degraded peer fill took %s; it must not stall the sweep", d)
	}

	healthy := fleet.NewFetcher("self", peers)
	got, ok := healthy.Fetch("somekey")
	if !ok || !bytes.Equal(got, entry) {
		t.Fatalf("clean fetch = %q, %v; want the served entry", got, ok)
	}
}

// TestFetchContextRespectsCallerDeadline is the satellite-1 regression
// test: an already-expired caller context must stop the peer walk —
// the old hardcoded 1s timeout on context.Background ignored callers
// entirely.
func TestFetchContextRespectsCallerDeadline(t *testing.T) {
	reached := false
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached = true
	}))
	defer peer.Close()
	f := fleet.NewFetcher("self", func() []fleet.Member {
		return []fleet.Member{{ID: "peer", URL: peer.URL, CacheEnabled: true}}
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := f.FetchContext(ctx, "somekey"); ok {
		t.Fatal("cancelled context produced a hit")
	}
	if reached {
		t.Fatal("cancelled context still contacted the peer")
	}
}
