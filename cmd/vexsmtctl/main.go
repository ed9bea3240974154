// Command vexsmtctl runs an experiment grid across one or more vexsmtd
// backends and assembles the results into a single canonical document.
//
// It is the client half of distributed mode: the grid of the named
// figures is resolved once into cells, and the cells — not shards — are
// scheduled over the backends (pkg/vexsmt/sched via pkg/vexsmt/shard)
// with health-based slot sizing, work stealing for stragglers, and
// per-cell retry and failover. Because per-cell seeds derive from
// workload identity and cached results are byte-identical to simulated
// ones, the output is byte-identical to what a single process would
// produce — `vexsmtctl -json out` files diff clean no matter how many
// machines ran the sweep or how warm their caches were. Interrupting a
// run (SIGINT) closes every in-flight cell's results stream, and each
// daemon cancels its cell within one timeslice-bounded poll.
//
// Usage:
//
//	vexsmtctl -fig 14                                   # in-process run
//	vexsmtctl -shards http://a:8080,http://b:8080       # two-backend sweep
//	vexsmtctl -fig 14,15 -scale 1000 -json results.json # JSON export
//	vexsmtctl -cache off                                # bypass result caches
//	vexsmtctl -corpus traces/ -fig 14                   # trace workloads join the grid
//
// Fleet mode (see pkg/vexsmt/fleet) replaces the static -shards list with
// a registry daemons join on their own:
//
//	vexsmtctl -coordinator :9090            # host the fleet registry
//	vexsmtctl -fleet http://host:9090 -status            # member table
//	vexsmtctl -fleet http://host:9090 -fig 14            # fleet sweep
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
	"vexsmt/pkg/vexsmt/fault"
	"vexsmt/pkg/vexsmt/fleet"
	"vexsmt/pkg/vexsmt/resilience"
	"vexsmt/pkg/vexsmt/shard"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vexsmtctl:", err)
		os.Exit(1)
	}
}

// gridPlan resolves the -fig/-sweep/-predictor/-corpus flags into the
// grid plan, rejecting unknown figure and predictor names up front (with
// the lists of valid ones) and plans that name no grid cells at all —
// "-fig 13a" would otherwise "run" an empty sweep and print a zero-cell
// summary as if it had worked. Workloads arrive as full "name@sha256"
// references (from vexsmt.LoadWorkloads), so a distributed sweep's
// daemons accept a trace cell only when they hold byte-identical content.
func gridPlan(figList string, sweep bool, predList string, workloads []string) (vexsmt.Plan, error) {
	figures, err := vexsmt.ParseFigures(figList)
	if err != nil {
		return vexsmt.Plan{}, err
	}
	preds, err := vexsmt.ParsePredictors(predList)
	if err != nil {
		return vexsmt.Plan{}, err
	}
	plan := vexsmt.Plan{Figures: figures, Sweep: sweep, Predictors: preds, Workloads: workloads}
	scratch, err := vexsmt.New()
	if err != nil {
		return vexsmt.Plan{}, err
	}
	n, err := scratch.PlanSize(plan)
	if err != nil {
		return vexsmt.Plan{}, err
	}
	if n == 0 {
		return vexsmt.Plan{}, fmt.Errorf("figures %q plan no grid cells (13a is single-threaded, 13b is a table; render them with paperbench); grid figures are 14, 15, 16",
			figList)
	}
	return plan, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("vexsmtctl", flag.ContinueOnError)
	var (
		shards   = fs.String("shards", "", "comma-separated vexsmtd base URLs (e.g. http://a:8080,http://b:8080); empty runs in-process")
		fig      = fs.String("fig", "all", "figures whose grid to run: comma-separated list of 13a, 13b, 14, 15, 16, or all")
		sweep    = fs.Bool("sweep", false, "also sweep every technique over all nine mixes at 2 and 4 threads")
		pred     = fs.String("predictor", "static", "branch predictors to cross the grid with: comma-separated list of static, bimodal, gshare, tage, or all")
		corpus   = fs.String("corpus", "", "trace corpus directory (.vxt/.vex): every workload in it joins the plan, swept under all techniques at 2 and 4 threads")
		scale    = fs.Int64("scale", 100, "scale divisor of paper scale (1 = paper scale)")
		quick    = fs.Bool("quick", false, "shorthand for -scale 1000")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		retries  = fs.Int("retries", 2, "extra attempts per cell after a backend failure (0 disables)")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool bound for in-process execution")
		jsonOut  = fs.String("json", "", "write the grid as schema-versioned JSON to this file")
		cacheOn  = fs.String("cache", "on", "result cache: on (in-process runs use the disk cache; remote backends use theirs) or off (bypass everywhere)")
		cacheDir = fs.String("cache-dir", "", "in-process result cache directory (default: the user cache dir, e.g. ~/.cache/vexsmt)")
		verbose  = fs.Bool("v", false, "log placement, steals, retries and backend failures")

		chaosSeed     = fs.Uint64("chaos-seed", 0, "fault-injection seed; the same seed and profile reproduce the identical fault schedule")
		chaosProfile  = fs.String("chaos-profile", "off", "fault-injection profile for the client paths: off, light or heavy (results stay byte-identical)")
		localFallback = fs.Bool("local-fallback", false, "degrade to in-process execution when no backend is healthy instead of failing the run")

		coordinator = fs.String("coordinator", "", "serve a standalone fleet registry on this address (e.g. :9090) instead of running a sweep")
		fleetTTL    = fs.Duration("fleet-ttl", fleet.DefaultTTL, "with -coordinator: registration lease; members silent longer are evicted")
		fleetURL    = fs.String("fleet", "", "fleet registry URL; the sweep runs across the daemons registered there")
		status      = fs.Bool("status", false, "with -fleet: print the fleet's member table and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *quick {
		*scale = 1000
	}
	// Chaos wiring is strictly opt-in: with the profile off no client is
	// wrapped and the fault layer costs zero. The chaos seed also feeds
	// the retry policy's deterministic jitter, so a reproduced failure
	// replays its timing too.
	chaos, err := fault.ParseProfile(*chaosProfile)
	if err != nil {
		return err
	}
	var inj *fault.Injector
	chaosClient := http.DefaultClient
	if chaos.Enabled() {
		inj = fault.New(*chaosSeed, chaos)
		chaosClient = fault.Client(inj, nil)
		fmt.Fprintf(os.Stderr, "vexsmtctl: chaos profile %s, seed %d\n", chaos.Name, *chaosSeed)
	}

	var urls []string
	for _, u := range strings.Split(*shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if *fleetURL != "" && len(urls) > 0 {
		return fmt.Errorf("-fleet and -shards are exclusive: the fleet registry replaces the static backend list")
	}
	if *status && *fleetURL == "" {
		return fmt.Errorf("-status needs -fleet (the registry to talk to)")
	}

	// Only the in-process sweep path opens the disk cache — a remote run
	// forwards the on/off decision to the daemons, which own their caches,
	// and must not create an unused directory on the client. The mode is
	// still validated up front either way, so a bad -cache value dies
	// before any daemon is contacted.
	var diskCache *cache.Disk
	switch {
	case *coordinator != "" || *status:
		// No sweep runs; no cache is involved.
	case len(urls) > 0 || *fleetURL != "":
		if err := cache.ValidateMode(*cacheOn); err != nil {
			return err
		}
	default:
		var err error
		if diskCache, err = cache.FromFlag(*cacheOn, *cacheDir); err != nil {
			return err
		}
	}

	// SIGTERM too: CI cancellation and `timeout` send it, and dying without
	// cancelling the run context would orphan running cells on the daemons.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *coordinator != "" {
		return runCoordinator(ctx, *coordinator, *fleetTTL)
	}
	if *status {
		return printFleetStatus(ctx, *fleetURL)
	}

	// The corpus loads into the process-shared store, so the in-process
	// path replays it directly; distributed runs only ship the references,
	// and every daemon resolves them against its own -workload-dir corpus.
	var wlRefs []string
	if *corpus != "" {
		refs, err := vexsmt.LoadWorkloads(*corpus)
		if err != nil {
			return err
		}
		wlRefs = refs
		if *verbose {
			fmt.Fprintf(os.Stderr, "vexsmtctl: corpus %s: %s\n", *corpus, strings.Join(refs, ", "))
		}
	}

	plan, err := gridPlan(*fig, *sweep, *pred, wlRefs)
	if err != nil {
		return err
	}
	start := time.Now()
	var rs *vexsmt.ResultSet
	nBackends := len(urls)
	var cacheStats func() vexsmt.CacheStats
	if len(urls) == 0 && *fleetURL == "" {
		// Single-process reference path: a plain Service.Collect routed
		// through the same cell scheduler as everything else. Its canonical
		// encoding is exactly what distributed runs are diffed against.
		nBackends = 1
		opts := []vexsmt.Option{
			vexsmt.WithScale(*scale),
			vexsmt.WithSeed(*seed),
			vexsmt.WithParallelism(*parallel),
		}
		if diskCache != nil {
			var cc vexsmt.CellCache = diskCache
			if inj != nil {
				// Chaos grinds the in-process cache tier too; the consumer's
				// decode-or-miss path absorbs every injected corruption.
				cc = fault.NewCache(inj, diskCache)
			}
			opts = append(opts, vexsmt.WithCache(cc))
			if *verbose {
				fmt.Fprintf(os.Stderr, "vexsmtctl: result cache at %s\n", diskCache.Dir())
			}
		}
		svc, err := vexsmt.New(opts...)
		if err != nil {
			return err
		}
		cacheStats = svc.CacheStats
		rs, err = svc.Collect(ctx, plan)
		if err != nil {
			return err
		}
		rs.Canonicalize()
	} else {
		cfg := shard.Config{
			Scale:         *scale,
			Seed:          *seed,
			Retries:       *retries,
			CacheOff:      *cacheOn == "off",
			LocalFallback: *localFallback,
		}
		cfg.Policy = resilience.Default()
		cfg.Policy.Seed = *chaosSeed
		if *retries <= 0 {
			cfg.Retries = -1 // Config treats 0 as "default"; the flag means "disable"
		}
		if *verbose {
			cfg.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "vexsmtctl: "+format+"\n", args...)
			}
		}
		progressDone := liveProgress(&cfg)
		var coord *shard.Coordinator
		if *fleetURL != "" {
			// The registry is the backend source, re-resolved per sweep —
			// daemons that joined since the last run are picked up here.
			// The source's client carries the chaos transport (when on) to
			// every backend it yields.
			src, err := fleet.NewHTTPSource(*fleetURL, chaosClient)
			if err != nil {
				return err
			}
			members, err := fleet.FetchMembers(ctx, nil, *fleetURL)
			if err != nil {
				return err
			}
			if len(members) == 0 {
				return fmt.Errorf("fleet at %s has no registered daemons", *fleetURL)
			}
			nBackends = len(members)
			if coord, err = shard.NewFromSource(cfg, src); err != nil {
				return err
			}
		} else {
			var backends []shard.Backend
			for _, u := range urls {
				b, err := shard.NewHTTP(u, shard.WithClient(chaosClient))
				if err != nil {
					return err
				}
				backends = append(backends, b)
			}
			var err error
			if coord, err = shard.New(cfg, backends...); err != nil {
				return err
			}
		}
		rs, err = coord.Collect(ctx, plan)
		progressDone()
		if err != nil {
			if errors.Is(err, context.Canceled) && ctx.Err() != nil {
				return fmt.Errorf("cancelled; closed the stream of every in-flight cell")
			}
			return err
		}
	}

	fmt.Printf("%d cells (1/%d scale, seed %d) in %.1fs across %d backend(s)\n",
		len(rs.Cells), *scale, *seed, time.Since(start).Seconds(), nBackends)
	if cacheStats != nil {
		if st := cacheStats(); st.Hits+st.Misses > 0 {
			fmt.Printf("cache: %d hit(s), %d miss(es), %d put(s)\n", st.Hits, st.Misses, st.Puts)
		}
	}
	if *jsonOut != "" {
		if err := vexsmt.EncodeToFile(*jsonOut, rs); err != nil {
			return err
		}
		fmt.Printf("wrote %d cells to %s (schema v%d)\n", len(rs.Cells), *jsonOut, vexsmt.SchemaVersion)
		return nil
	}
	printIPCSummary(rs)
	return nil
}

// runCoordinator hosts a standalone fleet registry: daemons register
// under /v1/fleet/ and /healthz answers with a fleet-wide rollup, so one
// curl shows the whole fleet's capacity and cache footprint. Serves
// until SIGINT/SIGTERM.
func runCoordinator(ctx context.Context, addr string, ttl time.Duration) error {
	if ttl <= 0 {
		return fmt.Errorf("-fleet-ttl must be positive")
	}
	// Three beats per lease: one dropped heartbeat never evicts a member,
	// a dead one leaves within a lease.
	interval := ttl / 3
	if interval < 200*time.Millisecond {
		interval = 200 * time.Millisecond
	}
	reg := fleet.NewRegistry(fleet.WithTTL(ttl), fleet.WithHeartbeatInterval(interval))
	mux := http.NewServeMux()
	mux.Handle("/v1/fleet/", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"ok": true, "role": "coordinator", "fleet": reg.Rollup()})
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("vexsmtctl coordinator listening on %s (lease %s, heartbeat %s)\n", ln.Addr(), ttl, interval)
	hs := newHTTPServer(mux)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(shctx)
}

// newHTTPServer wraps h in the coordinator's http.Server. A client gets
// resilience.Default's attempt budget to finish its request headers and
// to hold an idle keep-alive connection; there is deliberately no write
// timeout, because an NDJSON results stream stays open as long as its
// plan runs.
func newHTTPServer(h http.Handler) *http.Server {
	budget := resilience.Default().AttemptTimeout
	return &http.Server{Handler: h, ReadHeaderTimeout: budget, IdleTimeout: budget}
}

// printFleetStatus renders the registry's member table.
func printFleetStatus(ctx context.Context, registryURL string) error {
	members, err := fleet.FetchMembers(ctx, nil, registryURL)
	if err != nil {
		return err
	}
	if len(members) == 0 {
		fmt.Println("fleet: no registered daemons")
		return nil
	}
	fmt.Printf("%-20s %-28s %5s %5s %6s %-14s %3s %8s %9s %9s\n",
		"MEMBER", "URL", "CAP", "RUN", "SIMS", "PRED", "WL", "ENTRIES", "PEERHITS", "UPTIME")
	for _, m := range members {
		cacheEntries := "-"
		if m.CacheEnabled {
			cacheEntries = fmt.Sprintf("%d", m.CacheSize.Entries)
		}
		pred := m.Predictors
		if pred == "" {
			pred = "-" // idle: no plans running, no predictor axis to report
		}
		wl := 0 // advertised trace corpus size
		if m.Workloads != "" {
			wl = strings.Count(m.Workloads, ",") + 1
		}
		fmt.Printf("%-20s %-28s %5d %5d %6d %-14s %3d %8s %9d %9s\n",
			m.ID, m.URL, m.Capacity, m.Running, m.Simulations, pred, wl,
			cacheEntries, m.Cache.PeerHits,
			(time.Duration(m.UptimeSeconds) * time.Second).String())
	}
	return nil
}

// liveProgress wires a single-line progress meter into cfg and returns a
// function that finishes the line.
func liveProgress(cfg *shard.Config) func() {
	wrote := false
	cfg.OnProgress = func(p shard.Progress) {
		wrote = true
		fmt.Fprintf(os.Stderr, "\rcells %d/%d  stolen %d  retries %d  cache %d/%d ",
			p.CellsDone, p.CellsTotal, p.Stolen, p.Retries, p.CacheHits, p.CacheHits+p.CacheMisses)
	}
	return func() {
		if wrote {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// printIPCSummary renders the grid as a technique × thread-count
// mean-IPC table (a Figure 16 view computed purely from collected cells —
// no local simulation state exists to render the full figures from).
func printIPCSummary(rs *vexsmt.ResultSet) {
	if len(rs.Cells) == 0 {
		return
	}
	type key struct {
		tech    string
		threads int
	}
	sum := make(map[key]float64)
	n := make(map[key]int)
	threadSet := make(map[int]bool)
	for _, c := range rs.Cells {
		k := key{c.Technique, c.Threads}
		sum[k] += c.IPC
		n[k]++
		threadSet[c.Threads] = true
	}
	var threads []int
	for t := range threadSet {
		threads = append(threads, t)
	}
	sort.Ints(threads)

	fmt.Printf("\nmean IPC over %d cells:\n%-10s", len(rs.Cells), "technique")
	for _, t := range threads {
		fmt.Printf("  %4dT", t)
	}
	fmt.Println()
	for _, tech := range vexsmt.Techniques() {
		any := false
		row := fmt.Sprintf("%-10s", tech)
		for _, t := range threads {
			k := key{tech, t}
			if n[k] == 0 {
				row += "     -"
				continue
			}
			any = true
			row += fmt.Sprintf("  %5.2f", sum[k]/float64(n[k]))
		}
		if any {
			fmt.Println(row)
		}
	}
}
