// Chaos suite: fault schedules are reproducible and degraded peer fills
// never stall a sweep. Full sweeps under chaos are rows of
// pkg/vexsmt's TestByteIdentityMatrix.
package fault_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vexsmt/pkg/vexsmt/fault"
	"vexsmt/pkg/vexsmt/fleet"
)

// quickChaos is Heavy with its soft delays squeezed, so the schedule
// stays aggressive without idling the test.
func quickChaos() fault.Profile {
	p := fault.Heavy()
	p.RequestDelay = time.Millisecond
	p.PeerFillDelay = time.Millisecond
	return p
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
