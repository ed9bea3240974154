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
	"sort"
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
//	POST   /v1/plans            submit a plan; returns {"id": ...}
//	POST   /v1/plans?stream=1   submit and stream in one request: NDJSON
//	                            ack line ({"id": ...}), then the results
//	                            stream below; the plan is cancelled if
//	                            still running and evicted when it ends
//	GET    /v1/plans            list submitted plans
//	GET    /v1/results?id=ID    snapshot: meta, status, progress, cells
//	GET    /v1/results?id=ID&stream=1
//	                            NDJSON: one CellResult per line as cells
//	                            complete, then a final status line
//	DELETE /v1/plans?id=ID      cancel a running plan
//	GET    /v1/cache/{key}      serve one local result-cache entry (peer fill)
//	POST   /v1/prefetch         warm the local cache with upcoming cells
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

	simulations atomic.Int64 // simulator runs performed by finished jobs

	mu       sync.Mutex
	jobs     map[string]*job
	next     int
	prefetch map[int]*prefetchJob
	nextPre  int
}

// prefetchJob is one background cache-warming run.
type prefetchJob struct {
	cancel context.CancelFunc
	done   chan struct{}
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

// job is one submitted plan: a service, the cells streamed so far, and the
// terminal state. Mutable state is guarded by mu; done closes when the
// stream drains.
type job struct {
	id         string
	num        int // submission order, drives oldest-first eviction
	meta       vexsmt.RunMeta
	total      int
	predictors string // sorted distinct predictor axis of the resolved plan
	workloads  string // sorted distinct workload axis of the resolved plan
	weight     int    // simulation workers the plan can occupy (admission unit)
	created    time.Time
	cancel     context.CancelFunc
	done       chan struct{}
	finished   func() // runs once when the stream drains (simulation accounting)

	mu     sync.Mutex
	cells  []vexsmt.CellResult
	failed string // first cell error, if any
	status string // "running", "done", "failed", "cancelled"
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

// New builds a server whose jobs default to the given scale, seed and
// parallelism.
func New(scale int64, seed uint64, parallelism int, opts ...Option) *Server {
	s := &Server{
		defaults: serverDefaults{scale: scale, seed: seed, parallelism: parallelism},
		started:  time.Now(),
		jobs:     make(map[string]*job),
		prefetch: make(map[int]*prefetchJob),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plans", s.handlePlans)
	mux.HandleFunc("/v1/results", s.handleResults)
	mux.HandleFunc("/v1/cache/", s.handleCacheGet)
	mux.HandleFunc("/v1/prefetch", s.handlePrefetch)
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
// runs (finished jobs and prefetches; cache hits excluded), background
// prefetch activity, and the result cache's traffic and footprint. The
// same numbers back /healthz and the fleet heartbeat, so the registry's
// member table and a direct probe can never disagree about a daemon.
type Stats struct {
	Capacity       int
	Running        int
	UptimeSeconds  float64
	Simulations    int64
	PrefetchActive int
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
	prefetching := len(s.prefetch)
	predictors, workloads := s.runningAxesLocked()
	s.mu.Unlock()
	st := Stats{
		Capacity:       s.capacity(),
		Running:        running,
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Simulations:    s.simulations.Load(),
		PrefetchActive: prefetching,
		Predictors:     predictors,
		Workloads:      workloads,
		Corpus:         corpus,
		CacheEnabled:   s.cache != nil,
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
// uptime, cumulative simulations, prefetch activity, and the cache's
// entry/byte footprint. "running" is the committed simulation-worker
// weight, so a coordinator's capacity-running arithmetic yields free
// worker slots (for one-cell plans, weight and plan count coincide).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	body := map[string]any{
		"ok":              true,
		"capacity":        st.Capacity,
		"running":         st.Running,
		"scale":           s.defaults.scale,
		"seed":            s.defaults.seed,
		"schema_version":  vexsmt.SchemaVersion,
		"uptime_seconds":  st.UptimeSeconds,
		"simulations":     st.Simulations,
		"prefetch_active": st.PrefetchActive,
		"predictors":      st.Predictors,
		"workloads":       st.Workloads,
		"corpus":          st.Corpus,
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

// maxActivePrefetch bounds concurrent background warm-up runs; beyond it
// requests shed with 503 + Retry-After, exactly like plan admission.
const maxActivePrefetch = 4

// prefetchRequest is the POST /v1/prefetch body: the cells to warm and
// the seed/scale their keys are addressed under (defaults apply when
// absent, mirroring plan submission).
type prefetchRequest struct {
	Cells []vexsmt.CellSpec `json:"cells"`
	Scale *int64            `json:"scale,omitempty"`
	Seed  *uint64           `json:"seed,omitempty"`
}

// handlePrefetch warms the local result cache with the posted cells in the
// background: each cell is simulated (or peer-filled) once and stored, so
// a sweep scheduled to land later runs against a warm fleet. Prefetch is
// deliberately gentle — single simulation worker, results discarded, no
// admission weight — and best-effort: it returns 202 as soon as the run is
// started, and a daemon death mid-prefetch costs warmth, not correctness.
func (s *Server) handlePrefetch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.cache == nil {
		httpError(w, http.StatusBadRequest, "no result cache on this daemon; nothing to warm")
		return
	}
	var req prefetchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad prefetch: %v", err)
		return
	}
	if len(req.Cells) == 0 {
		httpError(w, http.StatusBadRequest, "prefetch names no cells")
		return
	}
	scale, seed := s.defaults.scale, s.defaults.seed
	if req.Scale != nil {
		scale = *req.Scale
	}
	if req.Seed != nil {
		seed = *req.Seed
	}
	// Prefetched cells may name trace workloads; make sure the corpus is
	// resolvable before the cells are validated.
	if _, err := s.workloads(); err != nil {
		httpError(w, http.StatusInternalServerError, "workload corpus %s: %v", s.workloadDir, err)
		return
	}
	svc, err := vexsmt.New(
		vexsmt.WithScale(scale),
		vexsmt.WithSeed(seed),
		vexsmt.WithParallelism(1), // background warming must not starve admitted plans
		vexsmt.WithCache(s.cache),
	)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := svc.Stream(ctx, vexsmt.Plan{Cells: req.Cells})
	if err != nil {
		cancel()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pj := &prefetchJob{cancel: cancel, done: make(chan struct{})}
	s.mu.Lock()
	if len(s.prefetch) >= maxActivePrefetch {
		s.mu.Unlock()
		cancel()
		for range ch {
			// Drain the aborted stream so its worker unwinds.
		}
		w.Header().Set("Retry-After", strconv.Itoa(resilience.RetryAfterHint))
		httpError(w, http.StatusServiceUnavailable, "%d prefetches already warming; retry later", maxActivePrefetch)
		return
	}
	s.nextPre++
	id := s.nextPre
	s.prefetch[id] = pj
	s.mu.Unlock()

	go func() {
		defer close(pj.done)
		defer cancel()
		for range ch {
			// Results are discarded: the side effect — a warm cache — is the
			// point, and failures only cost warmth.
		}
		s.simulations.Add(svc.SimulationsRun())
		s.mu.Lock()
		delete(s.prefetch, id)
		s.mu.Unlock()
	}()
	writeJSON(w, http.StatusAccepted, map[string]any{
		"cells": len(req.Cells),
		"scale": scale,
		"seed":  seed,
	})
}

// CancelJobs cancels every job (plans and background prefetches) and
// waits for their streams to drain — the server half of graceful shutdown.
// Jobs stay registered (terminal, e.g. "cancelled") so watchers attached
// to an NDJSON stream receive a final status line instead of a dropped
// connection; evicting them is left to the normal retention policy.
func (s *Server) CancelJobs() {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	pre := make([]*prefetchJob, 0, len(s.prefetch))
	for _, p := range s.prefetch {
		pre = append(pre, p)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	for _, p := range pre {
		p.cancel()
	}
	for _, j := range jobs {
		<-j.done
	}
	for _, p := range pre {
		<-p.done
	}
}

func (s *Server) handlePlans(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.submitPlan(w, r)
	case http.MethodGet:
		s.listPlans(w)
	case http.MethodDelete:
		s.cancelPlan(w, r)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use POST, GET or DELETE")
	}
}

// submitPlan validates the request, resolves the plan eagerly (so bad
// plans fail with 400, not asynchronously), and starts streaming. With
// stream=1 the reply is the plan's NDJSON results stream, led by the ack
// object the 202 form returns, and the plan lives only as long as the
// request: one round trip per plan, and a client cancels by hanging up.
func (s *Server) submitPlan(w http.ResponseWriter, r *http.Request) {
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
	total := len(cells)

	ctx, cancel := context.WithCancel(context.Background())
	ch, err := svc.Stream(ctx, req.Plan)
	if err != nil {
		cancel()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Admission is weighted by worker demand, not plan count: a one-cell
	// plan (the cell-scheduling coordinator's submission pattern) occupies
	// one simulation worker, so a big daemon can run capacity() of them at
	// once, while a full-grid plan's own worker pool is charged in full —
	// the old flat four-plan cap let four grid plans oversubscribe every
	// core 4x. A single plan wider than the whole capacity is clamped so
	// it can still run alone.
	weight := svc.Parallelism()
	if total < weight {
		weight = total
	}
	if weight < 1 {
		weight = 1
	}
	s.mu.Lock()
	cap := s.capacity()
	if weight > cap {
		weight = cap
	}
	if used := s.runningWeightLocked(); used+weight > cap {
		s.mu.Unlock()
		cancel()
		// Admission shedding: overload answers fast with a machine-readable
		// backoff hint instead of queueing work it cannot start — a fleet
		// coordinator treats the 503 as "place elsewhere, come back in a
		// beat" rather than a dead member.
		w.Header().Set("Retry-After", strconv.Itoa(resilience.RetryAfterHint))
		httpError(w, http.StatusServiceUnavailable, "at capacity (%d/%d simulation workers committed); retry later",
			used, cap)
		return
	}
	s.next++
	j := &job{
		id:         "plan-" + strconv.Itoa(s.next),
		num:        s.next,
		meta:       svc.Meta(),
		total:      total,
		predictors: axis(cells, vexsmt.CellSpec.PredictorName),
		workloads:  axis(cells, func(c vexsmt.CellSpec) string { return c.Workload }),
		weight:     weight,
		created:    time.Now(),
		cancel:     cancel,
		done:       make(chan struct{}),
		status:     "running",
	}
	s.jobs[j.id] = j
	s.evictTerminalLocked()
	s.mu.Unlock()

	// The job's simulator runs roll into the server-wide counter when the
	// stream drains (cache hits excluded), so /healthz "simulations" tells
	// the fleet whether this daemon worked or recalled.
	j.finished = func() { s.simulations.Add(svc.SimulationsRun()) }
	go j.consume(ctx, ch)

	// The id also travels as a header so a client whose body read fails
	// (connection trouble mid-response) can still DELETE the plan instead
	// of orphaning a running job.
	w.Header().Set("X-Vexsmt-Plan-Id", j.id)
	ack := map[string]any{
		"id":    j.id,
		"cells": total,
		"meta":  j.meta,
	}
	if r.URL.Query().Get("stream") != "" {
		defer s.dropJob(j)
		s.streamResults(w, r, j, ack)
		return
	}
	writeJSON(w, http.StatusAccepted, ack)
}

// consume drains the stream into the job, recording the terminal state.
func (j *job) consume(ctx context.Context, ch <-chan vexsmt.CellResult) {
	defer close(j.done)
	defer j.cancel()
	if j.finished != nil {
		defer j.finished()
	}
	for cell := range ch {
		if cell.Err != "" && ctx.Err() != nil {
			// Cancellation abort, not a simulation failure: the cell never
			// completed (and is un-memoized), so it must not inflate the
			// completed count or masquerade as the job's error.
			continue
		}
		j.mu.Lock()
		j.cells = append(j.cells, cell)
		if cell.Err != "" && j.failed == "" {
			j.failed = fmt.Sprintf("%s: %s", cell.CellSpec, cell.Err)
		}
		j.mu.Unlock()
	}
	j.mu.Lock()
	switch {
	case ctx.Err() != nil:
		j.status = "cancelled"
	case j.failed != "":
		j.status = "failed"
	default:
		j.status = "done"
	}
	j.mu.Unlock()
}

// snapshot returns the job's current progress and a copy of the cells
// accumulated so far (from offset on).
func (j *job) snapshot(offset int) (status, failed string, total int, cells []vexsmt.CellResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if offset < len(j.cells) {
		cells = append(cells, j.cells[offset:]...)
	}
	return j.status, j.failed, j.total, cells
}

// progress reports status and counts without copying the cell slice —
// the cheap accessor for listings and polling.
func (j *job) progress() (status string, completed, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, len(j.cells), j.total
}

func (s *Server) listPlans(w http.ResponseWriter) {
	s.mu.Lock()
	out := make([]map[string]any, 0, len(s.jobs))
	for _, j := range s.jobs {
		status, completed, total := j.progress()
		out = append(out, map[string]any{
			"id": j.id, "status": status,
			"completed": completed, "cells": total,
			"predictors": j.predictors,
			"workloads":  j.workloads,
			"created":    j.created.UTC().Format(time.RFC3339),
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i]["id"].(string) < out[k]["id"].(string) })
	writeJSON(w, http.StatusOK, map[string]any{"plans": out})
}

// cancelPlan cancels the job, waits for its stream to drain, and evicts
// it — DELETE is both cancel and cleanup, so completed jobs' results do
// not accumulate in the server forever.
func (s *Server) cancelPlan(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	j, ok := s.job(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown plan")
		return
	}
	s.dropJob(j)
	status, completed, _ := j.progress()
	writeJSON(w, http.StatusOK, map[string]any{
		"id": j.id, "status": status, "completed": completed,
	})
}

// dropJob cancels j if it is still running, waits for its stream to
// drain, and evicts it.
func (s *Server) dropJob(j *job) {
	j.cancel()
	<-j.done
	s.mu.Lock()
	delete(s.jobs, j.id)
	s.mu.Unlock()
}

// maxRetainedJobs bounds server memory: beyond this many jobs, the oldest
// terminal (done/failed/cancelled) ones are evicted with their results.
// Running jobs are never evicted — they bound themselves by finishing.
const maxRetainedJobs = 64

// maxRunningJobs is the floor on the admission budget, so small daemons
// (parallelism below 4) still overlap a few plans.
const maxRunningJobs = 4

// capacity is the server's simulation-worker budget, advertised on
// /healthz and charged per plan at admission (see submitPlan): at least
// maxRunningJobs, and at least the default simulation parallelism — the
// cell-scheduling coordinator submits one-cell plans (weight 1), and a
// four-plan budget would idle all but four cores of a big daemon, while
// unbounded admission would oversubscribe the CPU and pin every partial
// result in memory.
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
// running jobs. Caller holds s.mu.
func (s *Server) runningAxesLocked() (predictors, workloads string) {
	var preds, wls []string
	for _, j := range s.jobs {
		if status, _, _ := j.progress(); status == "running" {
			preds = append(preds, strings.Split(j.predictors, ",")...)
			wls = append(wls, strings.Split(j.workloads, ",")...)
		}
	}
	return joinDistinct(preds), joinDistinct(wls)
}

// runningWeightLocked sums the admission weight of jobs still
// simulating. Caller holds s.mu.
func (s *Server) runningWeightLocked() int {
	n := 0
	for _, j := range s.jobs {
		if status, _, _ := j.progress(); status == "running" {
			n += j.weight
		}
	}
	return n
}

// evictTerminalLocked ages out the oldest terminal jobs while the registry
// exceeds maxRetainedJobs. Caller holds s.mu.
func (s *Server) evictTerminalLocked() {
	for len(s.jobs) > maxRetainedJobs {
		var oldest *job
		for _, j := range s.jobs {
			if status, _, _ := j.progress(); status == "running" {
				continue
			}
			if oldest == nil || j.num < oldest.num {
				oldest = j
			}
		}
		if oldest == nil {
			return // everything still running; nothing evictable
		}
		delete(s.jobs, oldest.id)
	}
}

func (s *Server) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	j, ok := s.job(r.URL.Query().Get("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown plan")
		return
	}
	if r.URL.Query().Get("stream") != "" {
		s.streamResults(w, r, j, nil)
		return
	}
	status, failed, total, cells := j.snapshot(0)
	// The embedded ResultSet keeps the schema contract a downstream merger
	// relies on: successful cells only (failures are reported via status +
	// error, exactly as Collect fails instead of returning a partial set),
	// in the canonical sorted order so equal plans return byte-identical
	// results documents.
	rs := vexsmt.ResultSet{Meta: j.meta}
	for _, c := range cells {
		if c.Err == "" {
			rs.Cells = append(rs.Cells, c)
		}
	}
	rs.Sort()
	writeJSON(w, http.StatusOK, map[string]any{
		"id":        j.id,
		"status":    status,
		"error":     failed,
		"completed": len(cells),
		"cells":     total,
		"results":   rs,
	})
}

// streamResults writes NDJSON: the lead line, if any (the stream-form
// submit's ack), every completed cell (including those that finished before
// the watcher connected), live cells as they complete, and one terminal
// status object. Polling the job avoids subscription plumbing; 100ms
// granularity is invisible next to cell runtimes.
//
// Output is buffered, headers included, and flushed only when the writer
// is about to wait with cells the client has not seen, or on the tick — so
// a watcher of a slow plan gets its 200 within one tick and can tell
// "running" from "dead", while a plan that finishes before the writer
// waits (a cache hit) leaves in the one write net/http makes when the
// handler returns.
func (s *Server) streamResults(w http.ResponseWriter, r *http.Request, j *job, lead any) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	enc := json.NewEncoder(w)
	if lead != nil {
		if err := enc.Encode(lead); err != nil {
			return
		}
	}

	offset := 0
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		status, failed, total, cells := j.snapshot(offset)
		for _, cell := range cells {
			if err := enc.Encode(cell); err != nil {
				return // watcher went away
			}
		}
		offset += len(cells)
		if status != "running" {
			_ = enc.Encode(map[string]any{
				"status": status, "error": failed,
				"completed": offset, "cells": total,
			})
			return
		}
		if len(cells) > 0 {
			flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-j.done:
			// Loop once more to drain the tail and emit the status line.
		case <-tick.C:
			flush()
		}
	}
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
