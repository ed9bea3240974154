package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
	"vexsmt/pkg/vexsmt/fleet"
	"vexsmt/pkg/vexsmt/server"
	"vexsmt/pkg/vexsmt/shard"
)

// daemon is one in-process vexsmtd: the library server behind a loopback
// http.Server, exactly as cmd/vexsmtd wires it.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

func startDaemon(srv *server.Server, tr *tracer) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := srv.Handler()
	if tr != nil {
		h = traceHandler(tr, h)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// close cancels the daemon's jobs, closes its listener and connections,
// and waits for its serve loop to return.
func (d *daemon) close() {
	d.srv.CancelJobs()
	_ = d.hs.Close() // the only error is the listener's own close error
	<-d.done
}

// client is the load generator's HTTP client, traced or not.
type client struct {
	transport *http.Transport
	traced    *tracedTransport // nil when untraced
	http      *http.Client
}

// loopbackTransport is a transport that keeps enough idle connections to
// a daemon for every cell in flight to reuse one.
func loopbackTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	return t
}

func newClient(tr *tracer) *client {
	t := loopbackTransport()
	c := &client{transport: t, http: &http.Client{Transport: t}}
	if tr != nil {
		c.traced = newTracedTransport(t, tr)
		c.http = &http.Client{Transport: c.traced}
	}
	return c
}

// stack is one load generator aimed at one target daemon: client,
// clamped Backend wrapper and shard.Coordinator.
type stack struct {
	cfg     runConfig
	tr      *tracer
	daemons []*daemon // every daemon the stack owns; daemons[len-1] is the target
	client  *client
	backend *benchBackend
	coord   *shard.Coordinator
	prog    shard.Progress // the last sweep's final progress

	openMs float64 // cache.NewDisk at set-up
	loadMs float64 // vexsmt.LoadWorkloads at set-up (cold only)

	// peer only: the registry holding daemon A, and B's peer-fill
	// transport, kept across B's renewals so fetches reuse connections.
	registry *fleet.Registry
	fetchTr  *http.Transport
}

func (s *stack) target() *daemon { return s.daemons[len(s.daemons)-1] }

// aim (re)builds the client side against the target daemon.
func (s *stack) aim() error {
	if s.client != nil {
		s.client.transport.CloseIdleConnections()
	}
	s.client = newClient(s.tr)
	h, err := shard.NewHTTP(s.target().url, shard.WithClient(s.client.http))
	if err != nil {
		return err
	}
	s.backend = &benchBackend{inner: h, slots: s.cfg.wl.slots, tr: s.tr}
	s.coord, err = shard.New(shard.Config{
		Scale:      s.cfg.scale,
		Seed:       s.cfg.seed,
		OnProgress: func(p shard.Progress) { s.prog = p },
	}, s.backend)
	return err
}

func (s *stack) close() {
	if s.client != nil {
		s.client.transport.CloseIdleConnections()
	}
	if s.fetchTr != nil {
		s.fetchTr.CloseIdleConnections()
	}
	for i := len(s.daemons) - 1; i >= 0; i-- {
		s.daemons[i].close()
	}
	s.daemons = nil
}

// wrapCache puts the traced wrapper around a store when tracing.
func (s *stack) wrapCache(c vexsmt.CellCache, prefix string, sim bool) vexsmt.CellCache {
	if s.tr == nil {
		return c
	}
	return newTracedCache(c, s.tr, prefix, sim)
}

func (s *stack) openDisk() (*cache.Disk, error) {
	t0 := time.Now()
	d, err := cache.NewDisk(s.cfg.dir)
	s.openMs = msSince(t0)
	return d, err
}

// newStack builds the workload's daemons and load generator over the
// result-cache directory cfg.dir: empty (cold) or primed (warm, peer).
func newStack(cfg runConfig, tr *tracer) (*stack, error) {
	s := &stack{cfg: cfg, tr: tr}
	var err error
	switch cfg.wl.name {
	case "cold-sweep":
		err = s.buildCold()
	case "warm-sweep":
		err = s.buildWarm()
	case "peer-sweep":
		err = s.buildPeer()
	default:
		err = fmt.Errorf("unknown workload %q", cfg.wl.name)
	}
	if err == nil {
		err = s.aim()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) buildCold() error {
	d, err := s.openDisk()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := vexsmt.LoadWorkloads(s.cfg.corpus); err != nil {
		return err
	}
	s.loadMs = msSince(t0)
	srv := server.New(s.cfg.scale, s.cfg.seed, s.cfg.wl.slots,
		server.WithCache(s.wrapCache(d, "cache", true)), server.WithWorkloads(s.cfg.corpus))
	// Stats loads the server's corpus now, so the first sweep does not.
	if len(srv.Stats().Corpus) == 0 {
		return fmt.Errorf("daemon loaded no workloads from %s", s.cfg.corpus)
	}
	return s.add(srv)
}

func (s *stack) buildWarm() error {
	d, err := s.openDisk()
	if err != nil {
		return err
	}
	return s.add(server.New(s.cfg.scale, s.cfg.seed, s.cfg.wl.slots,
		server.WithCache(s.wrapCache(d, "cache", true))))
}

// buildPeer starts daemon A over the primed cache, registers it in a fleet
// registry, and starts the first daemon B.
func (s *stack) buildPeer() error {
	d, err := s.openDisk()
	if err != nil {
		return err
	}
	if err := s.add(server.New(s.cfg.scale, s.cfg.seed, s.cfg.wl.slots,
		server.WithCache(s.wrapCache(d, "cache.src", true)))); err != nil {
		return err
	}
	s.registry = fleet.NewRegistry(fleet.WithTTL(time.Hour))
	s.fetchTr = loopbackTransport()
	if _, err := s.registry.Upsert(fleet.Member{ID: "a", URL: s.daemons[0].url, CacheEnabled: true}); err != nil {
		return err
	}
	return s.addPeerB()
}

// addPeerB starts a fresh daemon B: an empty in-memory local tier behind a
// peer-fill wrapper whose fetcher reads the registry, so every Get misses
// locally and is filled from A.
func (s *stack) addPeerB() error {
	fetcher := fleet.NewFetcher("b", s.registry.Members, fleet.WithFetchClient(&http.Client{Transport: s.fetchTr}))
	fetch := fetcher.Fetch
	if s.tr != nil {
		fetch = tracedFetch(s.tr, fetch)
	}
	local := s.wrapCache(cache.NewMemory(0), "cache.local", false)
	srv := server.New(s.cfg.scale, s.cfg.seed, s.cfg.wl.slots,
		server.WithCache(s.wrapCache(cache.WithPeerFill(local, fetch), "cache", true)))
	return s.add(srv)
}

// renewPeerB replaces daemon B with a fresh one and re-aims the client.
func (s *stack) renewPeerB() error {
	s.daemons[len(s.daemons)-1].close()
	s.daemons = s.daemons[:len(s.daemons)-1]
	if err := s.addPeerB(); err != nil {
		return err
	}
	return s.aim()
}

func (s *stack) add(srv *server.Server) error {
	d, err := startDaemon(srv, s.tr)
	if err != nil {
		return err
	}
	s.daemons = append(s.daemons, d)
	return nil
}

// simulations sums Server.Stats().Simulations over the stack's daemons.
func (s *stack) simulations() int64 {
	var n int64
	for _, d := range s.daemons {
		n += d.srv.Stats().Simulations
	}
	return n
}

// cacheErrors sums the daemons' result-cache verification errors.
func (s *stack) cacheErrors() int64 {
	var n int64
	for _, d := range s.daemons {
		n += d.srv.Stats().Cache.Errors
	}
	return n
}

// sweepOut is one sweep's raw outcome.
type sweepOut struct {
	start time.Time
	wall  time.Duration
	rs    *vexsmt.ResultSet
	runs  []runRecord
	err   error
}

func (s *stack) sweep(ctx context.Context, plan vexsmt.Plan) sweepOut {
	s.prog = shard.Progress{}
	t0 := time.Now()
	rs, err := s.coord.Collect(ctx, plan)
	wall := time.Since(t0)
	return sweepOut{start: t0, wall: wall, rs: rs, runs: s.backend.takeRuns(), err: err}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
