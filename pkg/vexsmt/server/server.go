// Package server implements the vexsmtd HTTP control plane as an
// importable library, so cmd/vexsmtd stays a thin shell and the shard
// coordinator's HTTP backend can be tested against the real /v1 protocol
// with net/http/httptest. It is deliberately built only on pkg/vexsmt —
// the server never reaches into internal packages.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vexsmt/pkg/vexsmt"
)

// Server exposes the public vexsmt API over HTTP/JSON. It is deliberately
// a thin shell: every simulation capability it offers comes from
// pkg/vexsmt — the server never reaches into internal packages.
//
//	POST   /v1/plans            run a plan: NDJSON ack line ({"cells",
//	                            "meta"}), one CellResult per line as cells
//	                            complete, then a terminal status line; the
//	                            plan lives as long as the request
//	GET    /v1/cache/{key}      serve one local result-cache entry (peer fill)
//	GET    /healthz             capacity/running/defaults/cache stats
//
// The fleet registry (pkg/vexsmt/fleet) is not among these routes: it is
// served by vexsmtctl -coordinator, and a process that wants both mounts
// Handler and the registry's Handler on one mux of its own.
type Server struct {
	defaults serverDefaults // server-level default scale/seed/parallelism
	cache    vexsmt.CellCache
	started  time.Time

	workloadDir string    // trace corpus directory (WithWorkloads); "" = synthetic only
	wlOnce      sync.Once // corpus loads once per server, on first need
	wlRefs      []string  // sorted "name@sha256" references of the loaded corpus
	wlErr       error

	simulations atomic.Int64 // simulator runs performed by finished plans

	// base is the parent of every plan's context; CancelJobs cancels it.
	base      context.Context
	cancelAll context.CancelFunc

	mu      sync.Mutex
	running map[*runningPlan]struct{} // plans whose cells are still simulating
}

// planRequest is the POST /v1/plans body: the plan itself plus per-plan
// overrides of the server's simulation defaults. Overrides are pointers
// so that explicit zero values (notably seed 0) are distinguishable from
// absent fields instead of silently falling back to the defaults. Cache
// is "", "on" (use the server's result cache, if configured) or "off"
// (bypass it for this plan) — anything else is a 400.
type planRequest struct {
	vexsmt.Plan
	Scale       *int64  `json:"scale,omitempty"`
	Seed        *uint64 `json:"seed,omitempty"`
	Parallelism *int    `json:"parallelism,omitempty"`
	Cache       string  `json:"cache,omitempty"`
}

// runningPlan is what the server knows of one running plan: the
// admission weight it holds and the axes /healthz reports. Its cells go
// straight from the service to the client; the server keeps none of them.
type runningPlan struct {
	weight     int    // simulation workers the plan can occupy (admission unit)
	predictors string // sorted distinct predictor axis of the resolved plan
	workloads  string // sorted distinct workload axis of the resolved plan
}

// serverDefaults are the simulation parameters a plan gets when its
// request leaves them unset.
type serverDefaults struct {
	scale       int64
	seed        uint64
	parallelism int
}

// Option configures a Server at construction.
type Option func(*Server)

// WithCache attaches a content-addressed result cache shared by every
// plan the server runs (unless a submission opts out with cache=off).
// Cache statistics surface on /healthz. The cache may be a peer-fill
// wrapper (pkg/vexsmt/cache.WithPeerFill); /v1/cache then serves from the
// wrapped local tier only, so peer requests never recurse back into the
// fleet.
func WithCache(c vexsmt.CellCache) Option {
	return func(s *Server) { s.cache = c }
}

// WithWorkloads points the server at a trace corpus directory (.vxt /
// .vex; see internal/wstore). The corpus loads once — content-addressed,
// decoded a single time per process — on first need, and every plan the
// server admits can then name its workloads (bare name or "name@sha256"
// reference); unknown names fail admission with 400. The loaded
// references are listed on /healthz so a coordinator can route
// trace-backed cells only to daemons that hold the bytes.
func WithWorkloads(dir string) Option {
	return func(s *Server) { s.workloadDir = dir }
}

// workloads returns the loaded corpus references, loading the directory
// on first call. Without WithWorkloads it returns (nil, nil).
func (s *Server) workloads() ([]string, error) {
	if s.workloadDir == "" {
		return nil, nil
	}
	s.wlOnce.Do(func() {
		s.wlRefs, s.wlErr = vexsmt.LoadWorkloads(s.workloadDir)
	})
	return s.wlRefs, s.wlErr
}

// New builds a server whose plans default to the given scale, seed and
// parallelism.
func New(scale int64, seed uint64, parallelism int, opts ...Option) *Server {
	s := &Server{
		defaults: serverDefaults{scale: scale, seed: seed, parallelism: parallelism},
		started:  time.Now(),
		running:  make(map[*runningPlan]struct{}),
	}
	s.base, s.cancelAll = context.WithCancel(context.Background())
	for _, o := range opts {
		o(s)
	}
	return s
}

// connTimeout is how long a client gets to finish its request headers
// and to hold an idle keep-alive connection.
const connTimeout = 5 * time.Second

// NewHTTPServer wraps h in the http.Server every listener of this
// project uses: a stalled client is disconnected after connTimeout, and
// there is deliberately no write timeout, because an NDJSON results
// stream stays open as long as its plan runs.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: connTimeout, IdleTimeout: connTimeout}
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plans", s.handlePlans)
	mux.HandleFunc("/v1/cache/", s.handleCacheGet)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// localCacheUnwrapper is implemented by peer-fill wrappers: Local returns
// the store this daemon actually owns. /v1/cache serves only that tier —
// answering peer requests through the wrapper would bounce a fleet-wide
// missing key between cold daemons forever.
type localCacheUnwrapper interface {
	Local() vexsmt.CellCache
}

// exportCache returns the cache tier /v1/cache serves from.
func (s *Server) exportCache() vexsmt.CellCache {
	if u, ok := s.cache.(localCacheUnwrapper); ok {
		return u.Local()
	}
	return s.cache
}

// Stats is a point-in-time snapshot of the server's fleet signals: the
// admission numbers a coordinator places by, uptime, cumulative simulator
// runs (finished plans; cache hits excluded), and the result cache's
// traffic and footprint. The same numbers back /healthz and the fleet
// heartbeat, so the registry's member table and a direct probe can never
// disagree about a daemon.
type Stats struct {
	Capacity      int
	Running       int
	UptimeSeconds float64
	Simulations   int64
	// Predictors is the comma-joined sorted distinct predictor axis of
	// the running plans ("" when nothing runs), so fleet status tables can
	// show what front end each daemon is simulating right now.
	Predictors string
	// Workloads is the comma-joined sorted distinct trace-workload axis of
	// the running plans ("" when nothing runs or everything is synthetic).
	Workloads string
	// Corpus is the loaded trace corpus as sorted "name@sha256" references
	// (nil without WithWorkloads) — what this daemon can replay, as
	// opposed to Workloads, which is what it is replaying right now.
	Corpus       []string
	CacheEnabled bool
	Cache        vexsmt.CacheStats
	CacheSize    vexsmt.CacheSize
}

// Stats returns the current snapshot (see the Stats type).
func (s *Server) Stats() Stats {
	corpus, _ := s.workloads() // a broken corpus lists as empty; plan admission reports the error
	s.mu.Lock()
	running := s.runningWeightLocked()
	predictors, workloads := s.runningAxesLocked()
	s.mu.Unlock()
	st := Stats{
		Capacity:      s.capacity(),
		Running:       running,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Simulations:   s.simulations.Load(),
		Predictors:    predictors,
		Workloads:     workloads,
		Corpus:        corpus,
		CacheEnabled:  s.cache != nil,
	}
	if s.cache != nil {
		st.Cache = s.cache.Stats()
		if sizer, ok := s.cache.(vexsmt.CacheSizer); ok {
			st.CacheSize = sizer.CacheSize()
		}
	}
	return st
}

// handleHealthz reports liveness plus the numbers a shard coordinator
// needs for placement and failover — how many more plans this server will
// admit (capacity vs running) and the simulation defaults it applies to
// requests that don't override them — and the fleet's sizing signals:
// uptime, cumulative simulations, and the cache's entry/byte footprint. "running" is the committed simulation-worker
// weight, so a coordinator's capacity-running arithmetic yields free
// worker slots (for one-cell plans, weight and plan count coincide).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	body := map[string]any{
		"ok":             true,
		"capacity":       st.Capacity,
		"running":        st.Running,
		"scale":          s.defaults.scale,
		"seed":           s.defaults.seed,
		"schema_version": vexsmt.SchemaVersion,
		"uptime_seconds": st.UptimeSeconds,
		"simulations":    st.Simulations,
		"predictors":     st.Predictors,
		"workloads":      st.Workloads,
		"corpus":         st.Corpus,
	}
	cacheInfo := map[string]any{"enabled": st.CacheEnabled}
	if st.CacheEnabled {
		cacheInfo["hits"] = st.Cache.Hits
		cacheInfo["misses"] = st.Cache.Misses
		cacheInfo["puts"] = st.Cache.Puts
		cacheInfo["errors"] = st.Cache.Errors
		cacheInfo["peer_hits"] = st.Cache.PeerHits
		cacheInfo["peer_misses"] = st.Cache.PeerMisses
		cacheInfo["entries"] = st.CacheSize.Entries
		cacheInfo["bytes"] = st.CacheSize.Bytes
	}
	body["cache"] = cacheInfo
	writeJSON(w, http.StatusOK, body)
}

// handleCacheGet serves one entry of the local result-cache tier, the
// supply side of fleet peer fill: a daemon that misses locally asks its
// peers here before simulating. The X-Vexsmt-Sha256 header carries the
// payload's digest and clients must verify it, so a torn or corrupted
// response degrades to a peer miss, never a wrong result.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
	if key == "" || strings.ContainsAny(key, "/\\") {
		httpError(w, http.StatusBadRequest, "bad cache key %q", key)
		return
	}
	c := s.exportCache()
	if c == nil {
		httpError(w, http.StatusNotFound, "no result cache on this daemon")
		return
	}
	payload, ok := c.Get(key)
	if !ok {
		httpError(w, http.StatusNotFound, "miss")
		return
	}
	sum := sha256.Sum256(payload)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Vexsmt-Sha256", hex.EncodeToString(sum[:]))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
}

// CancelJobs cancels every running plan and refuses every later one with
// 503: the server half of graceful shutdown. It does not wait. Each
// cancelled plan's stream ends with a terminal "cancelled" status line,
// and http.Server.Shutdown, called next, waits for those responses.
func (s *Server) CancelJobs() {
	s.cancelAll()
}

// handlePlans runs one plan per request. Everything that can fail before
// a cell runs answers with a JSON error: a bad body, override or plan
// (400), a corpus that fails to load (500), or a daemon that is full or
// shutting down (503 with Retry-After). Otherwise the reply is 200
// NDJSON: an ack line carrying the plan's cell count and meta, one
// CellResult per line as cells complete, and a terminal
// {"status","error","completed","cells"} line. The plan lives exactly as
// long as the request, so a client cancels it by hanging up.
func (s *Server) handlePlans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	req, err := readPlanRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad plan: %v", err)
		return
	}
	// Present overrides — including explicit zeros — go through the option
	// validators, so an invalid value (zero or negative scale, zero
	// parallelism) is a 400, never a silent fallback to the defaults.
	scale, seed, parallelism := s.defaults.scale, s.defaults.seed, s.defaults.parallelism
	if req.Scale != nil {
		scale = *req.Scale
	}
	if req.Seed != nil {
		seed = *req.Seed
	}
	if req.Parallelism != nil {
		parallelism = *req.Parallelism
	}
	opts := []vexsmt.Option{
		vexsmt.WithScale(scale),
		vexsmt.WithSeed(seed),
		vexsmt.WithParallelism(parallelism),
	}
	switch req.Cache {
	case "", "on":
		if s.cache != nil {
			opts = append(opts, vexsmt.WithCache(s.cache))
		}
	case "off":
		// The plan simulates everything afresh and stores nothing.
	default:
		httpError(w, http.StatusBadRequest, "bad cache %q: want on or off", req.Cache)
		return
	}
	// Load the corpus (once per server) before resolving, so a plan naming
	// trace workloads resolves them against the shared store. A corpus that
	// fails to load is this daemon's fault, not the plan's: 500, not 400.
	if _, err := s.workloads(); err != nil {
		httpError(w, http.StatusInternalServerError, "workload corpus %s: %v", s.workloadDir, err)
		return
	}
	svc, err := vexsmt.New(opts...)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cells, err := svc.PlanCells(req.Plan)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Admission is weighted by worker demand, not plan count: a one-cell
	// plan (the cell-scheduling coordinator's submission pattern) occupies
	// one simulation worker, so a big daemon can run capacity() of them at
	// once, while a full-grid plan's own worker pool is charged in full. A
	// single plan wider than the whole capacity is clamped so it can still
	// run alone.
	p := &runningPlan{
		weight:     max(1, min(svc.Parallelism(), len(cells), s.capacity())),
		predictors: axis(cells, vexsmt.CellSpec.PredictorName),
		workloads:  axis(cells, func(c vexsmt.CellSpec) string { return c.Workload }),
	}
	var refused string
	s.mu.Lock()
	switch used := s.runningWeightLocked(); {
	case s.base.Err() != nil:
		refused = "shutting down; retry elsewhere"
	case used+p.weight > s.capacity():
		refused = fmt.Sprintf("at capacity (%d/%d simulation workers committed); retry later", used, s.capacity())
	default:
		s.running[p] = struct{}{}
	}
	s.mu.Unlock()
	if refused != "" {
		// Admission shedding: overload answers fast with a machine-readable
		// backoff hint instead of queueing work it cannot start — a fleet
		// coordinator treats the 503 as "place elsewhere, come back in a
		// beat" rather than a dead member.
		const retryAfterSeconds = "1"
		w.Header().Set("Retry-After", retryAfterSeconds)
		httpError(w, http.StatusServiceUnavailable, "%s", refused)
		return
	}
	s.servePlan(w, r, svc, req.Plan, cells, p)
}

// readPlanRequest reads a /v1/plans body to its end: net/http notices a
// client hanging up (ending r.Context()) only once the request body has
// been read to EOF. A coordinator's submission (vexsmt.AppendPlanSubmit's
// bytes) parses without encoding/json; any other body, or one cut short
// by the size limit, is decoded by json.Decoder from the same byte
// stream, which reads the first JSON value and ignores what follows it.
func readPlanRequest(body io.Reader) (planRequest, error) {
	var req planRequest
	data, rerr := io.ReadAll(body)
	if rerr == nil {
		if sub, ok := vexsmt.ParsePlanSubmit(data); ok {
			req.Cells, req.Scale, req.Seed, req.Cache = sub.Cells, &sub.Scale, &sub.Seed, sub.Cache
			return req, nil
		}
	}
	// After a read error body returns that error again, so the decoder
	// meets it exactly where it would have reading body directly.
	err := json.NewDecoder(io.MultiReader(bytes.NewReader(data), body)).Decode(&req)
	return req, err
}

// flushTick bounds how long a running plan's reply stays buffered: a
// slow plan's ack reaches the client within one tick.
const flushTick = 100 * time.Millisecond

// servePlan runs an admitted plan and writes its NDJSON reply: the ack,
// each cell as it completes, and the terminal status line. It retires
// the plan before the status line, so a client that has read that line
// finds the daemon's running weight already returned.
//
// Output is buffered, headers included, so a plan that finishes without
// waiting (a cache hit) leaves in the one write net/http makes when the
// handler returns. A one-cell plan, which is every coordinator
// submission, runs on this goroutine: no scheduler, no forwarder, just a
// timer that flushes the ack if the cell still runs one tick later.
// Larger plans stream over the service's worker pool (see drain).
func (s *Server) servePlan(w http.ResponseWriter, r *http.Request, svc *vexsmt.Service, pl vexsmt.Plan, cells []vexsmt.CellSpec, p *runningPlan) {
	ctx, cancel := context.WithCancel(s.base)
	defer cancel()
	defer context.AfterFunc(r.Context(), cancel)()
	var ch <-chan vexsmt.CellResult
	if len(cells) != 1 {
		var err error
		if ch, err = svc.Stream(ctx, pl); err != nil {
			s.retire(svc, p)
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rep := &replyWriter{w: w, cancel: cancel, total: len(cells)}
	// One buffer, sized to hold a cell line, serves every line.
	rep.write(vexsmt.AppendAckLine(make([]byte, 0, 1<<10), &vexsmt.PlanAck{Cells: len(cells), Meta: svc.Meta()}), nil)
	if ch == nil {
		rep.runCell(ctx, svc, cells[0])
	} else {
		rep.drain(ctx, ch)
	}
	s.retire(svc, p)
	status := "done"
	switch {
	case ctx.Err() != nil:
		status = "cancelled"
	case rep.failed != "":
		status = "failed"
	}
	rep.write(vexsmt.AppendStatusLine(rep.buf, &vexsmt.PlanStatus{Cells: rep.total, Completed: rep.completed,
		Error: rep.failed, Status: status}), nil)
}

// retire returns a plan's admission weight once its cells have stopped,
// and rolls its simulator runs (cache hits excluded) into the
// server-wide counter, so /healthz "simulations" tells the fleet whether
// this daemon worked or recalled.
func (s *Server) retire(svc *vexsmt.Service, p *runningPlan) {
	s.simulations.Add(svc.SimulationsRun())
	s.mu.Lock()
	delete(s.running, p)
	s.mu.Unlock()
}

// replyWriter writes one plan's NDJSON reply and tallies its cells.
type replyWriter struct {
	w      http.ResponseWriter
	cancel context.CancelFunc // stops the plan once a write fails
	buf    []byte             // each line is appended here and written whole
	werr   error              // the first write error

	total, completed int
	failed           string // the first failed cell and its error

	// mu and done keep runCell's timer from flushing w concurrently with,
	// or after, the handler's own later writes.
	mu   sync.Mutex
	done bool
}

// flush pushes what w has buffered to the client.
func (rep *replyWriter) flush() {
	if f, ok := rep.w.(http.Flusher); ok {
		f.Flush()
	}
}

// write writes one line (see vexsmt's wire codec) unless an earlier
// write failed, and keeps the line's buffer for the next.
func (rep *replyWriter) write(line []byte, err error) {
	if rep.werr == nil {
		if err == nil {
			_, err = rep.w.Write(line)
		}
		if rep.werr = err; rep.werr != nil {
			rep.cancel() // the client went away; stop simulating for it
		}
	}
	rep.buf = line[:0]
}

// cell tallies a delivered cell and writes it, reporting whether it did.
// A cell that failed because the plan was cancelled never completed (and
// is un-memoized), so it must not inflate the completed count or
// masquerade as the plan's error.
func (rep *replyWriter) cell(ctx context.Context, c *vexsmt.CellResult) bool {
	if c.Err != "" && ctx.Err() != nil {
		return false
	}
	rep.completed++
	if c.Err != "" && rep.failed == "" {
		rep.failed = fmt.Sprintf("%s: %s", c.CellSpec, c.Err)
	}
	rep.write(vexsmt.AppendCellLine(rep.buf, c))
	return true
}

// runCell resolves a one-cell plan on the handler's goroutine. The timer
// starts a goroutine only if it fires, that is, only for a cell that
// runs longer than a tick.
func (rep *replyWriter) runCell(ctx context.Context, svc *vexsmt.Service, spec vexsmt.CellSpec) {
	t := time.AfterFunc(flushTick, func() {
		rep.mu.Lock()
		defer rep.mu.Unlock()
		if !rep.done {
			rep.flush()
		}
	})
	c, _ := svc.RunCell(ctx, spec) // a failure arrives in c.Err
	t.Stop()
	rep.mu.Lock()
	rep.done = true
	rep.mu.Unlock()
	rep.cell(ctx, &c)
}

// drain writes a streamed plan's cells as they arrive, to the end of the
// channel even after the client has gone, so the plan's workers unwind.
// It flushes when it is about to wait holding cells the client has not
// seen (and more are to come), and on every tick while it waits.
func (rep *replyWriter) drain(ctx context.Context, ch <-chan vexsmt.CellResult) {
	tick := time.NewTicker(flushTick)
	defer tick.Stop()
	received := 0
	unseen := false // cells written since the last flush
	for {
		var c vexsmt.CellResult
		var ok bool
		select {
		case c, ok = <-ch:
		default:
			if unseen && received < rep.total {
				rep.flush()
				unseen = false
			}
			select {
			case c, ok = <-ch:
			case <-tick.C:
				rep.flush()
				unseen = false
				continue
			}
		}
		if !ok {
			return
		}
		received++
		if rep.cell(ctx, &c) {
			unseen = true
		}
	}
}

// maxRunningJobs is the floor on the admission budget, so small daemons
// (parallelism below 4) still overlap a few plans.
const maxRunningJobs = 4

// capacity is the server's simulation-worker budget, advertised on
// /healthz and charged per plan at admission (see handlePlans): at least
// maxRunningJobs, and at least the default simulation parallelism — the
// cell-scheduling coordinator submits one-cell plans (weight 1), and a
// four-plan budget would idle all but four cores of a big daemon, while
// unbounded admission would oversubscribe the CPU.
func (s *Server) capacity() int {
	if s.defaults.parallelism > maxRunningJobs {
		return s.defaults.parallelism
	}
	return maxRunningJobs
}

// axis derives one axis of a resolved plan's cells as a sorted distinct
// comma-joined list. Empty values (a synthetic cell's workload) are
// dropped, so an all-synthetic plan has an empty workload axis.
func axis(cells []vexsmt.CellSpec, of func(vexsmt.CellSpec) string) string {
	values := make([]string, len(cells))
	for i, c := range cells {
		values[i] = of(c)
	}
	return joinDistinct(values)
}

// joinDistinct sorts values, drops duplicates and empties, and joins
// the rest with commas.
func joinDistinct(values []string) string {
	slices.Sort(values)
	values = slices.Compact(values)
	if len(values) > 0 && values[0] == "" {
		values = values[1:]
	}
	return strings.Join(values, ",")
}

// runningAxesLocked unions the predictor and workload axes of all
// running plans. Caller holds s.mu.
func (s *Server) runningAxesLocked() (predictors, workloads string) {
	var preds, wls []string
	for p := range s.running {
		preds = append(preds, strings.Split(p.predictors, ",")...)
		wls = append(wls, strings.Split(p.workloads, ",")...)
	}
	return joinDistinct(preds), joinDistinct(wls)
}

// runningWeightLocked sums the admission weight of plans still
// simulating. Caller holds s.mu.
func (s *Server) runningWeightLocked() int {
	n := 0
	for p := range s.running {
		n += p.weight
	}
	return n
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
