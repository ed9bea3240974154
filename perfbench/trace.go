package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/shard"
)

// span is one timed call across a layer boundary. Spans of one grid cell
// share ID, the cell's cache key, which is what links a server handler to
// the client request that caused it and a simulation to the handler it ran
// under. Parent is filled in afterwards by link (by interval containment
// among the cell's spans); -1 marks a root.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	ID     string `json:"id,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per wrapped call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(layer, name, id string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Layer: layer, ID: id,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Parent: -1}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// mark returns the current span count; since returns a copy of the spans
// recorded after a mark, so one sweep's spans can be analysed on their own.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// writeJSON links every span recorded so far to its parent and writes
// them to path.
func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	link(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// link assigns every span with an ID its parent: the innermost earlier
// span of the same ID whose interval contains it. Spans are ordered by
// start, longer first on ties, so a parent always precedes its children.
func link(spans []span) {
	byID := make(map[string][]int)
	for i := range spans {
		spans[i].Parent = -1
		if spans[i].ID != "" {
			byID[spans[i].ID] = append(byID[spans[i].ID], i)
		}
	}
	for _, idx := range byID {
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.End > sb.End
		})
		var stack []int
		for _, i := range idx {
			for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				spans[i].Parent = stack[len(stack)-1]
			}
			stack = append(stack, i)
		}
	}
}

// rank orders span kinds from the outermost caller to the innermost work.
// Where two spans of one cell are active at once, the higher rank is where
// the time went: a server handler that waits on a simulation running in
// the job's own goroutine overlaps that simulation without containing it,
// and the simulation, not the wait, is what the time bought. Spans of the
// peer daemon (the fetch's far side) rank above the fetch they serve.
func rank(name string) int {
	switch {
	case name == "sim.run":
		return 9
	case strings.HasPrefix(name, "cache.src."):
		return 8
	case name == "server.cache_get":
		return 7
	case strings.HasPrefix(name, "fleet."):
		return 6
	case strings.HasPrefix(name, "cache.local."):
		return 5
	case strings.HasPrefix(name, "cache."):
		return 4
	case strings.HasPrefix(name, "server."):
		return 3
	case strings.HasPrefix(name, "http."):
		return 2
	}
	return 1 // shard.run
}

// selfTimes returns each span's self time: the part of its interval in
// which no span of the same cell with a higher rank (or, at equal rank, a
// later start) is active. Only time inside the cell's shard.run spans is
// attributed, so per cell the self times sum to its Backend.Run time;
// stray counts cell spans whose cell has no Run span.
func selfTimes(spans []span) (self []int64, stray int) {
	self = make([]int64, len(spans))
	byID := make(map[string][]int)
	for i, s := range spans {
		if s.ID != "" {
			byID[s.ID] = append(byID[s.ID], i)
		}
	}
	wins := func(a, b int) bool { // does span a take the time from span b?
		ra, rb := rank(spans[a].Name), rank(spans[b].Name)
		if ra != rb {
			return ra > rb
		}
		return spans[a].Start > spans[b].Start
	}
	for _, idx := range byID {
		var cuts []int64
		hasRun := false
		for _, i := range idx {
			cuts = append(cuts, spans[i].Start, spans[i].End)
			hasRun = hasRun || spans[i].Name == "shard.run"
		}
		if !hasRun {
			stray += len(idx)
			continue
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		for k := 0; k+1 < len(cuts); k++ {
			a, b := cuts[k], cuts[k+1]
			if a == b {
				continue
			}
			winner, inRun := -1, false
			for _, i := range idx {
				if spans[i].Start > a || spans[i].End < b {
					continue // not active over [a, b)
				}
				inRun = inRun || spans[i].Name == "shard.run"
				if winner < 0 || wins(i, winner) {
					winner = i
				}
			}
			if inRun {
				self[winner] += b - a
			}
		}
	}
	return self, stray
}

// ---- wrappers around each layer's public seam ----

// cellKeyCtx carries a cell's cache key from the Backend wrapper to the
// traced RoundTripper through the request context shard.HTTP derives.
type cellKeyCtx struct{}

// cellHeader carries the cell key from client to server, so server spans
// join the cell's span tree.
const cellHeader = "X-Perfbench-Cell"

// tracedCache wraps a vexsmt.CellCache. With sim set it is the store the
// server's services consult, and the interval from a key's miss to its Put
// is that cell's simulation.
type tracedCache struct {
	inner  vexsmt.CellCache
	tr     *tracer
	prefix string // span name prefix: "cache" (server-facing), "cache.local" or "cache.src" (peer A)
	sim    bool

	mu     sync.Mutex
	missAt map[string]time.Time
}

func newTracedCache(inner vexsmt.CellCache, tr *tracer, prefix string, sim bool) *tracedCache {
	return &tracedCache{inner: inner, tr: tr, prefix: prefix, sim: sim, missAt: make(map[string]time.Time)}
}

func (c *tracedCache) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	v, ok := c.inner.Get(key)
	t1 := time.Now()
	name := c.prefix + ".get_hit"
	if !ok {
		name = c.prefix + ".get_miss"
		if c.sim {
			c.mu.Lock()
			c.missAt[key] = t1
			c.mu.Unlock()
		}
	}
	c.tr.record("cache", name, key, t0, t1)
	return v, ok
}

func (c *tracedCache) Put(key string, value []byte) {
	t0 := time.Now()
	if c.sim {
		c.mu.Lock()
		miss, ok := c.missAt[key]
		delete(c.missAt, key)
		c.mu.Unlock()
		if ok {
			c.tr.record("sim", "sim.run", key, miss, t0)
		}
	}
	c.inner.Put(key, value)
	c.tr.record("cache", c.prefix+".put", key, t0, time.Now())
}

func (c *tracedCache) Stats() vexsmt.CacheStats { return c.inner.Stats() }

// CacheSize forwards the footprint so /healthz reads as it would unwrapped.
func (c *tracedCache) CacheSize() vexsmt.CacheSize {
	if s, ok := c.inner.(vexsmt.CacheSizer); ok {
		return s.CacheSize()
	}
	return vexsmt.CacheSize{}
}

// Local keeps the server's peer-fill unwrapping intact: /v1/cache serves
// the wrapped store's local tier, exactly as without the wrapper.
func (c *tracedCache) Local() vexsmt.CellCache {
	if u, ok := c.inner.(interface{ Local() vexsmt.CellCache }); ok {
		return u.Local()
	}
	return c
}

// tracedFetch wraps the peer-fill fetch hook.
func tracedFetch(tr *tracer, fetch func(string) ([]byte, bool)) func(string) ([]byte, bool) {
	return func(key string) ([]byte, bool) {
		t0 := time.Now()
		v, ok := fetch(key)
		name := "fleet.fetch_hit"
		if !ok {
			name = "fleet.fetch_miss"
		}
		tr.record("fleet", name, key, t0, time.Now())
		return v, ok
	}
}

// routeName names a daemon request by route, as the server's mux does.
func routeName(r *http.Request) string {
	switch p := r.URL.Path; {
	case p == "/v1/plans" && r.Method == http.MethodPost:
		return "submit"
	case p == "/v1/plans" && r.Method == http.MethodDelete:
		return "delete"
	case p == "/v1/results":
		return "stream"
	case strings.HasPrefix(p, "/v1/cache/"):
		return "cache_get"
	case p == "/healthz":
		return "healthz"
	}
	return "other"
}

// traceHandler is middleware around server.Server.Handler().
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		route := routeName(r)
		id := r.Header.Get(cellHeader)
		if route == "cache_get" {
			id = strings.TrimPrefix(r.URL.Path, "/v1/cache/")
		}
		tr.record("server", "server."+route, id, t0, time.Now())
	})
}

// tracedTransport is the client's RoundTripper. A request's span runs from
// RoundTrip until its body is closed, so it covers loopback, the server
// handler and the client's decoding of the body. It also tags requests
// with the cell key: from the context where shard.HTTP passes one on, and
// for the plan DELETE (sent on a fresh context) by the plan id the submit
// response named.
type tracedTransport struct {
	base    http.RoundTripper
	tr      *tracer
	bytesIn atomic.Int64

	mu    sync.Mutex
	plans map[string]string // plan id -> cell key
}

func newTracedTransport(base http.RoundTripper, tr *tracer) *tracedTransport {
	return &tracedTransport{base: base, tr: tr, plans: make(map[string]string)}
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeName(req)
	id, _ := req.Context().Value(cellKeyCtx{}).(string)
	if id == "" && route == "delete" {
		t.mu.Lock()
		id = t.plans[req.URL.Query().Get("id")]
		delete(t.plans, req.URL.Query().Get("id"))
		t.mu.Unlock()
	}
	if id != "" {
		req = req.Clone(req.Context())
		req.Header.Set(cellHeader, id)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.record("http", "http."+route, id, t0, time.Now())
		return nil, err
	}
	if route == "submit" && id != "" {
		t.mu.Lock()
		t.plans[resp.Header.Get("X-Vexsmt-Plan-Id")] = id
		t.mu.Unlock()
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: t, name: "http." + route, id: id, start: t0}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	t     *tracedTransport
	name  string
	id    string
	start time.Time
	once  sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.bytesIn.Add(int64(n))
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.tr.record("http", b.name, b.id, b.start, time.Now()) })
	return err
}

// benchBackend wraps the coordinator's shard.Backend. It clamps the
// advertised capacity so the coordinator keeps exactly slots cells in
// flight, and times every Run: those durations are the per-cell latency
// the end-to-end metrics report, traced or not.
type benchBackend struct {
	inner shard.Backend
	slots int
	tr    *tracer

	mu   sync.Mutex
	runs []runRecord // this sweep's Run calls
}

type runRecord struct {
	start, end time.Time
	err        bool
}

func (b *benchBackend) Name() string { return b.inner.Name() }

func (b *benchBackend) Health(ctx context.Context) (shard.Health, error) {
	h, err := b.inner.Health(ctx)
	if err == nil && h.Capacity-h.Running > b.slots {
		h.Capacity = h.Running + b.slots
	}
	return h, err
}

func (b *benchBackend) Run(ctx context.Context, job shard.Job) (*vexsmt.ResultSet, error) {
	var key string
	if b.tr != nil && len(job.Cells) == 1 {
		key = vexsmt.CacheKey(vexsmt.RunMeta{SchemaVersion: vexsmt.SchemaVersion, Seed: job.Seed, Scale: job.Scale}, job.Cells[0])
		ctx = context.WithValue(ctx, cellKeyCtx{}, key)
	}
	t0 := time.Now()
	rs, err := b.inner.Run(ctx, job)
	t1 := time.Now()
	b.tr.record("shard", "shard.run", key, t0, t1)
	b.mu.Lock()
	b.runs = append(b.runs, runRecord{start: t0, end: t1, err: err != nil})
	b.mu.Unlock()
	return rs, err
}

// takeRuns returns and clears the Run records since the last call.
func (b *benchBackend) takeRuns() []runRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	r := b.runs
	b.runs = nil
	return r
}
