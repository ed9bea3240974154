package fleet_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
	"vexsmt/pkg/vexsmt/fleet"
	"vexsmt/pkg/vexsmt/server"
	"vexsmt/pkg/vexsmt/shard"
)

const testScale = 20000

var testPlan = vexsmt.Plan{Figures: []string{"14"}}

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

// TestFleetSweepAndPeerFill drives the whole fleet stack in-process: two
// daemons self-register (the registry shares daemon A's mux),
// a registry-sourced coordinator sweeps them, and then a cold daemon
// joins and serves the same plan purely from its peers' caches, pulled
// on demand by a sweep. The exports of both sweeps must be byte-identical
// to a single-process run.
func TestFleetSweepAndPeerFill(t *testing.T) {
	svc, err := vexsmt.New(vexsmt.WithScale(testScale), vexsmt.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	base, err := svc.Collect(context.Background(), testPlan)
	if err != nil {
		t.Fatal(err)
	}
	baseline := encodeCanonical(t, base)
	cells, err := svc.PlanCells(testPlan)
	if err != nil {
		t.Fatal(err)
	}

	// Daemon A hosts the registry and a plain local cache.
	registry := fleet.NewRegistry()
	memA := cache.NewMemory(0)
	srvA := server.New(testScale, 1, 2, server.WithCache(memA))
	muxA := http.NewServeMux()
	muxA.Handle("/", srvA.Handler())
	muxA.Handle("/v1/fleet/", registry.Handler())
	tsA := httptest.NewServer(muxA)
	defer tsA.Close()

	// Daemon B peer-fills through its heartbeat's peer view.
	var urlB string
	snapB := func() fleet.Member {
		return fleet.Member{ID: "b", URL: urlB, CacheEnabled: true}
	}
	hbB, err := fleet.NewHeartbeat(tsA.URL, snapB)
	if err != nil {
		t.Fatal(err)
	}
	pfB := cache.WithPeerFill(cache.NewMemory(0), fleet.NewFetcher("b", hbB.Peers).Fetch)
	srvB := server.New(testScale, 1, 2, server.WithCache(pfB))
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	urlB = tsB.URL

	// Both daemons register; B beats after A so its peer view includes A.
	// The test beats by hand, so it renews the leases before each phase
	// that reads the registry: a slow sweep (under -race on a loaded
	// machine) can outlast the lease and evict both members.
	hbA, err := fleet.NewHeartbeat(tsA.URL, func() fleet.Member {
		return fleet.Member{ID: "a", URL: tsA.URL, CacheEnabled: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	beat := func() {
		t.Helper()
		for _, hb := range []*fleet.Heartbeat{hbA, hbB} {
			if err := hb.Beat(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	beat()

	// Sweep 1: a registry-sourced coordinator over the self-assembled
	// fleet, byte-identical to the single-process baseline.
	coord, err := shard.NewFromSource(shard.Config{Scale: testScale, Seed: 1}, registry.ShardSource())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := coord.Collect(context.Background(), testPlan)
	if err != nil {
		t.Fatal(err)
	}
	if encodeCanonical(t, rs) != baseline {
		t.Fatal("fleet sweep diverged from single-process baseline")
	}

	// Daemon C joins cold after the sweep; its fetcher reads the registry
	// directly (a coordinator-side peer view works identically).
	beat()
	pfC := cache.WithPeerFill(cache.NewMemory(0),
		fleet.NewFetcher("c", func() []fleet.Member { return registry.Members() }).Fetch)
	srvC := server.New(testScale, 1, 2, server.WithCache(pfC))
	tsC := httptest.NewServer(srvC.Handler())
	defer tsC.Close()

	// Sweep 2, routed entirely at C: every cell must come from a peer's
	// cache — the progress counters (taken before canonicalization strips
	// the Cached transport hint) prove C never simulated, and the
	// peer-hit counter proves where the payloads came from.
	bC, err := shard.NewHTTP(tsC.URL)
	if err != nil {
		t.Fatal(err)
	}
	var progC shard.Progress
	coordC, err := shard.New(shard.Config{
		Scale: testScale, Seed: 1,
		OnProgress: func(p shard.Progress) { progC = p },
	}, bC)
	if err != nil {
		t.Fatal(err)
	}
	rsC, err := coordC.Collect(context.Background(), testPlan)
	if err != nil {
		t.Fatal(err)
	}
	if encodeCanonical(t, rsC) != baseline {
		t.Fatal("cold-daemon sweep diverged from single-process baseline")
	}
	if progC.CacheMisses != 0 || progC.CacheHits != len(cells) {
		t.Fatalf("replacement daemon simulated: %+v, want %d pure cache hits", progC, len(cells))
	}
	if st := pfC.Stats(); st.PeerHits != int64(len(cells)) {
		t.Fatalf("peer hits %d, want %d (every cell filled from a peer)", st.PeerHits, len(cells))
	}
}
