// Command vexsmtd serves the split-issue simulator over HTTP/JSON, built
// entirely on the public pkg/vexsmt API (see pkg/vexsmt/server for the
// implementation). A plan runs for the length of one request, which
// streams its cells back as NDJSON; hanging up cancels it:
//
//	vexsmtd -addr :8080 -scale 1000
//
//	curl -sN localhost:8080/v1/plans -d '{"figures":["14"]}'
//	curl -s localhost:8080/healthz
//
// Results follow the versioned JSON schema of pkg/vexsmt (SchemaVersion);
// see the package documentation for the determinism and cancellation
// contract. On SIGINT/SIGTERM the daemon cancels every running plan and
// refuses new ones (each open stream receives a terminal "cancelled"
// status line), drains in-flight requests for up to -drain, and exits.
//
// With -join, the daemon becomes a fleet member (see pkg/vexsmt/fleet):
// it registers with the registry at the given URL, heartbeats its
// capacity and cache footprint, fills local cache misses from its peers'
// caches before simulating, and deregisters on shutdown:
//
//	vexsmtd -addr :0 -join http://coordinator:9090
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
	"vexsmt/pkg/vexsmt/fault"
	"vexsmt/pkg/vexsmt/fleet"
	"vexsmt/pkg/vexsmt/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vexsmtd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vexsmtd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address (port 0 picks an ephemeral port)")
		scale     = fs.Int64("scale", 100, "default scale divisor of paper scale")
		seed      = fs.Uint64("seed", 1, "default simulation seed")
		parallel  = fs.Int("parallel", runtime.GOMAXPROCS(0), "default max concurrent simulations per plan")
		drain     = fs.Duration("drain", 10*time.Second, "graceful shutdown deadline for in-flight requests")
		cacheOn   = fs.String("cache", "on", "result cache: on (content-addressed disk cache, shared across runs) or off")
		cacheDir  = fs.String("cache-dir", "", "result cache directory (default: the user cache dir, e.g. ~/.cache/vexsmt)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); off when empty")
		wlDir     = fs.String("workload-dir", "", "trace corpus directory (.vxt/.vex) served as plan workloads; empty disables the workload axis")
		join      = fs.String("join", "", "fleet registry URL to register with (e.g. http://coordinator:9090); empty runs standalone")
		name      = fs.String("name", "", "fleet member id (default: the advertised host:port)")
		advertise = fs.String("advertise", "", "base URL peers reach this daemon at (default: derived from the bound listener)")

		chaosSeed    = fs.Uint64("chaos-seed", 0, "fault-injection seed; the same seed and profile reproduce the identical fault schedule")
		chaosProfile = fs.String("chaos-profile", "off", "fault-injection profile: off, light or heavy (wraps the result cache and the fleet client paths; results stay byte-identical)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Chaos wiring is strictly opt-in: with the profile off nothing is
	// wrapped, so the fault layer costs zero when disabled.
	chaos, err := fault.ParseProfile(*chaosProfile)
	if err != nil {
		return err
	}
	var inj *fault.Injector
	if chaos.Enabled() {
		inj = fault.New(*chaosSeed, chaos)
		fmt.Printf("vexsmtd chaos profile %s, seed %d (deterministic fault injection active)\n",
			chaos.Name, *chaosSeed)
	}

	// Profiling stays on its own listener so the /v1 API surface never
	// exposes pprof, and a wedged simulation pool cannot starve it.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		fmt.Printf("vexsmtd pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := server.NewHTTPServer(mux).Serve(pln); err != nil {
				fmt.Fprintln(os.Stderr, "vexsmtd: pprof server:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d, err := cache.FromFlag(*cacheOn, *cacheDir)
	if err != nil {
		return err
	}
	// Load the trace corpus eagerly so a bad -workload-dir fails startup,
	// not the first plan. The files parse once into the process-shared
	// store; the server and every per-plan service replay the same records.
	var corpus []string
	if *wlDir != "" {
		if corpus, err = vexsmt.LoadWorkloads(*wlDir); err != nil {
			return err
		}
		fmt.Printf("vexsmtd workload corpus %s: %d workloads\n", *wlDir, len(corpus))
	}
	// Listen explicitly (rather than ListenAndServe) so the bound address is
	// printable: with -addr :0 the kernel picks the port, and shard
	// coordinators or test harnesses scrape it from this line. Listening
	// before building the server also fixes the advertised URL a fleet
	// member registers under.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	// Fleet wiring: the heartbeat's snapshot closes over srv (assigned
	// below, before the heartbeat loop starts), and the cache gains a
	// peer-fill tier reading the heartbeat's peer view. Under chaos the
	// local tier is wrapped first, so injected corruption sits below the
	// peer-fill layer exactly where real disk faults would: entries this
	// daemon serves to peers pass through it too, and the consumers'
	// decode-or-miss paths (plus the peer protocol's checksum) are what
	// keep results byte-identical anyway.
	var srv *server.Server
	var cellCache vexsmt.CellCache
	if d != nil {
		cellCache = d
		if inj != nil {
			cellCache = fault.NewCache(inj, d)
		}
	}
	var hb *fleet.Heartbeat
	if *join != "" {
		advURL := *advertise
		if advURL == "" {
			advURL = deriveAdvertise(ln.Addr())
		}
		id := *name
		if id == "" {
			id = advURL
		}
		snapshot := func() fleet.Member {
			m := fleet.Member{ID: id, URL: advURL}
			if srv == nil {
				return m
			}
			st := srv.Stats()
			m.Capacity = st.Capacity
			m.Running = st.Running
			m.UptimeSeconds = st.UptimeSeconds
			m.Simulations = st.Simulations
			m.Predictors = st.Predictors
			m.Workloads = strings.Join(st.Corpus, ",")
			m.CacheEnabled = st.CacheEnabled
			m.Cache = st.Cache
			m.CacheSize = st.CacheSize
			return m
		}
		// Under chaos the heartbeat and peer-fill clients go through the
		// fault transport (swallowed heartbeats, dropped/slowed peer GETs)
		// and the peer view may read one update stale.
		var hbOpts []fleet.HeartbeatOption
		var fetchOpts []fleet.FetcherOption
		peerView := func() []fleet.Member { return hb.Peers() }
		if inj != nil {
			hbOpts = append(hbOpts, fleet.WithHeartbeatClient(fault.Client(inj, nil)))
			fetchOpts = append(fetchOpts, fleet.WithFetchClient(fault.Client(inj, nil)))
			peerView = fault.StaleView(inj, "fleet.peers.stale", peerView)
		}
		if hb, err = fleet.NewHeartbeat(*join, snapshot, hbOpts...); err != nil {
			ln.Close()
			return err
		}
		if cellCache != nil {
			cellCache = cache.WithPeerFill(cellCache, fleet.NewFetcher(id, peerView, fetchOpts...).Fetch)
		}
		fmt.Printf("vexsmtd joining fleet at %s as %s (%s)\n", *join, id, advURL)
	}

	var srvOpts []server.Option
	if cellCache != nil {
		srvOpts = append(srvOpts, server.WithCache(cellCache))
		fmt.Printf("vexsmtd result cache at %s\n", d.Dir())
	}
	if *wlDir != "" {
		srvOpts = append(srvOpts, server.WithWorkloads(*wlDir))
	}
	srv = server.New(*scale, *seed, *parallel, srvOpts...)
	hs := server.NewHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if hb != nil {
		go hb.Run(ctx)
	}
	fmt.Printf("vexsmtd listening on %s (defaults: 1/%d scale, seed %d, parallelism %d)\n",
		ln.Addr(), *scale, *seed, *parallel)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default handling: a second signal kills instead of waiting
	fmt.Println("vexsmtd: signal received; cancelling running plans and draining")
	shctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// A plan's stream ends once its plan is cancelled, and CancelJobs also
	// refuses every plan that arrives after it, so Shutdown — which stops
	// intake and waits for in-flight requests — drains every stream.
	srv.CancelJobs()
	if err := hs.Shutdown(shctx); err != nil {
		hs.Close()
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// deriveAdvertise turns the bound listener address into a URL peers can
// dial. A wildcard bind (":8080", "0.0.0.0", "::") advertises loopback —
// right for single-machine fleets and CI; multi-host fleets pass
// -advertise explicitly.
func deriveAdvertise(addr net.Addr) string {
	host, port := "127.0.0.1", ""
	if ta, ok := addr.(*net.TCPAddr); ok {
		port = strconv.Itoa(ta.Port)
		if ta.IP != nil && !ta.IP.IsUnspecified() {
			host = ta.IP.String()
		}
	}
	return "http://" + net.JoinHostPort(host, port)
}
