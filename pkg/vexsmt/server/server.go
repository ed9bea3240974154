// Package server implements the vexsmtd HTTP control plane as an
// importable library, so cmd/vexsmtd stays a thin shell and the shard
// coordinator's HTTP backend can be tested against the real /v1 protocol
// with net/http/httptest. It is deliberately built only on pkg/vexsmt —
// the server never reaches into internal packages.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/resilience"
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
	var req planRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad plan: %v", err)
		return
	}
	// net/http notices a client hanging up (ending r.Context()) only once
	// the request body has been read to EOF.
	_, _ = io.Copy(io.Discard, body)
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
		w.Header().Set("Retry-After", strconv.Itoa(resilience.RetryAfterHint))
		httpError(w, http.StatusServiceUnavailable, "%s", refused)
		return
	}
	s.servePlan(w, r, svc, req.Plan, len(cells), p)
}

// servePlan runs an admitted plan and writes its NDJSON reply: the ack,
// each cell as it arrives, and the terminal status line. It drains the
// plan's cells to the end even after the client has gone, so the plan's
// workers unwind, and it retires the plan before the status line, so a
// client that has read that line finds the daemon's running weight
// already returned.
//
// Output is buffered, headers included, and flushed only when the writer
// is about to wait while holding cells the client has not seen (and more
// are to come), or on the 100 ms tick while it waits. So a slow plan's
// ack reaches the client within one tick, while a plan that finishes
// before the writer waits (a cache hit) leaves in the one write net/http
// makes when the handler returns.
func (s *Server) servePlan(w http.ResponseWriter, r *http.Request, svc *vexsmt.Service, pl vexsmt.Plan, total int, p *runningPlan) {
	ctx, cancel := context.WithCancel(s.base)
	defer cancel()
	defer context.AfterFunc(r.Context(), cancel)()
	// The plan's simulator runs roll into the server-wide counter once its
	// cells stop (cache hits excluded), so /healthz "simulations" tells the
	// fleet whether this daemon worked or recalled.
	retire := func() {
		s.simulations.Add(svc.SimulationsRun())
		s.mu.Lock()
		delete(s.running, p)
		s.mu.Unlock()
	}
	ch, err := svc.Stream(ctx, pl)
	if err != nil {
		retire()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	enc := json.NewEncoder(w)
	var werr error
	encode := func(v any) {
		if werr == nil {
			if werr = enc.Encode(v); werr != nil {
				cancel() // the client went away; stop simulating for it
			}
		}
	}
	encode(map[string]any{"cells": total, "meta": svc.Meta()})

	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	received, completed, failed := 0, 0, ""
	unseen := false // cells written since the last flush
	for {
		var cell vexsmt.CellResult
		var ok bool
		select {
		case cell, ok = <-ch:
		default:
			if unseen && received < total {
				flush()
				unseen = false
			}
			select {
			case cell, ok = <-ch:
			case <-tick.C:
				flush()
				unseen = false
				continue
			}
		}
		if !ok {
			break
		}
		received++
		if cell.Err != "" && ctx.Err() != nil {
			// Cancellation abort, not a simulation failure: the cell never
			// completed (and is un-memoized), so it must not inflate the
			// completed count or masquerade as the plan's error.
			continue
		}
		completed++
		if cell.Err != "" && failed == "" {
			failed = fmt.Sprintf("%s: %s", cell.CellSpec, cell.Err)
		}
		encode(cell)
		unseen = true
	}
	retire()
	status := "done"
	switch {
	case ctx.Err() != nil:
		status = "cancelled"
	case failed != "":
		status = "failed"
	}
	encode(map[string]any{"status": status, "error": failed, "completed": completed, "cells": total})
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
