package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"sort"
	"strings"

	"vexsmt/pkg/vexsmt/resilience"
)

// maxPeerEntry bounds a peer cache response; real entries are a few
// hundred bytes, so anything near the cap is a protocol violation.
const maxPeerEntry = 1 << 20

// Fetcher asks fleet peers for content-addressed cache entries — the
// demand side of peer fill. Its Fetch method matches the hook
// cache.WithPeerFill takes, so wiring a daemon is one line:
//
//	cache.WithPeerFill(local, fetcher.Fetch)
//
// Peers are tried in ID order (deterministic, so a warm fleet answers
// from the same peer every time), self is skipped, and every response is
// verified against its X-Vexsmt-Sha256 digest — a torn transfer is a
// peer miss, never a poisoned cache entry.
type Fetcher struct {
	selfID string
	peers  func() []Member
	client *http.Client
}

// FetcherOption configures a Fetcher.
type FetcherOption func(*Fetcher)

// WithFetchClient substitutes the http.Client used for peer requests.
func WithFetchClient(c *http.Client) FetcherOption {
	return func(f *Fetcher) { f.client = c }
}

// NewFetcher builds a fetcher for the member selfID whose peer view is
// read from peers at each Fetch (pass Heartbeat.Peers for a daemon, or a
// Registry-backed closure on a coordinator).
func NewFetcher(selfID string, peers func() []Member, opts ...FetcherOption) *Fetcher {
	f := &Fetcher{
		selfID: selfID,
		peers:  peers,
		client: http.DefaultClient,
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Fetch implements the cache.WithPeerFill hook (which carries no
// context); it is FetchContext under context.Background.
func (f *Fetcher) Fetch(key string) ([]byte, bool) {
	return f.FetchContext(context.Background(), key)
}

// FetchContext tries each peer's /v1/cache/{key} and returns the first
// verified entry. Any failure — unreachable peer, miss, checksum
// mismatch — moves on to the next peer; exhausting them is a peer miss
// and the caller simulates. Each peer's round-trip is bounded by
// resilience.PeerFill's attempt budget layered onto ctx — a caller whose
// deadline is nearer is respected, not overridden — and a ctx already
// done stops the peer walk entirely. A peer fill is never retried: the
// next peer, or the simulator, is the retry.
func (f *Fetcher) FetchContext(ctx context.Context, key string) ([]byte, bool) {
	if f.peers == nil || key == "" || strings.ContainsAny(key, "/\\") {
		return nil, false
	}
	peers := append([]Member(nil), f.peers()...)
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	for _, p := range peers {
		if ctx.Err() != nil {
			return nil, false
		}
		if p.ID == f.selfID || !p.CacheEnabled {
			continue
		}
		if payload, ok := f.fetchOne(ctx, p, key); ok {
			return payload, true
		}
	}
	return nil, false
}

func (f *Fetcher) fetchOne(ctx context.Context, p Member, key string) ([]byte, bool) {
	ctx, cancel := resilience.PeerFill().AttemptContext(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(p.URL, "/")+"/v1/cache/"+key, nil)
	if err != nil {
		return nil, false
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerEntry+1))
	if err != nil || len(payload) > maxPeerEntry {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if resp.Header.Get("X-Vexsmt-Sha256") != hex.EncodeToString(sum[:]) {
		return nil, false
	}
	return payload, true
}
