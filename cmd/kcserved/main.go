// Command kcserved serves coupling predictions from a measurement cache
// over HTTP. It loads the content-addressed cache a couple (or tables)
// campaign warmed and answers prediction queries without running worlds;
// with -measure it falls back to measuring cache misses on demand
// through a bounded worker pool, persisting the results for every later
// query.
//
//	couple -bench BT -chains 2,5 -cache-dir /var/kc/cache   # warm
//	kcserved -addr :8640 -cache-dir /var/kc/cache           # serve
//	curl 'localhost:8640/predict?bench=BT&chains=2,5'
//
// Endpoints (all GET):
//
//	/predict         prediction comparison: actual, summation, couplings (JSON)
//	/couplings       per-window C_S and composition coefficients (JSON)
//	/study           the full rendered study report (text)
//	/healthz         liveness probe
//	/metrics         obs registry snapshot (JSON; ?format=prom or
//	                 Accept: text/plain for Prometheus text exposition)
//	/version         build identity of the serving binary (JSON)
//	/debug/requests  flight-recorder dump: slowest + errored traces (JSON)
//	/internal/fill   peer-internal fill endpoint (requires X-Peer-Hop)
//
// With -peers and -self, N kcserved processes form a peer-filling
// cluster: consistent hashing over plan keys gives each key one owner
// node, non-owners proxy /predict-family queries to the owner over
// /internal/fill (replicating hot keys locally), and the owner's
// singleflight group collapses the whole fleet's identical in-flight
// queries — a cold key is measured exactly once cluster-wide. Per-peer
// circuit breakers rehash a dead peer's keys to the survivors, and any
// fill failure falls back to resolving locally.
//
// Every request (except /debug/requests itself) carries a trace: a
// deterministic ID echoed in the X-Trace-Id header and a span tree
// covering parse, singleflight wait, cache loads and on-demand
// measurement. The N slowest and all recent errored traces are retained
// in a flight recorder, dumpable via /debug/requests or flushed to
// -flight-out automatically when a request errors or exceeds -slow-ms
// (and always at shutdown). Inspect dumps with kcreport -requests.
//
// Query parameters mirror couple's flags: bench, class, procs, chains,
// trips, blocks, passes, grid — same defaults, so a query answers
// against the cache entries the equivalent couple invocation wrote.
//
// SIGINT/SIGTERM shut the service down gracefully: in-flight requests
// (including on-demand measurements) drain within -shutdown-grace, and
// -metrics-out writes a final manifest. A drain that outlives the grace
// period still flushes the flight dump and the manifest, then exits 1.
//
// Overload and failure hardening is opt-in: passing any guard flag
// (-deadline*, -max-inflight, -queue, -breaker-*, -stale) assembles the
// serving guard — a per-request deadline budget that answers 504 and
// detaches in-flight measurements onto the -deadline-measure budget, an
// admission controller that queues then sheds 503 + Retry-After, seeded
// circuit breakers around on-demand measurement and cache disk reads, a
// token-bucket retry budget, and a degradation ladder that serves
// provenance-tagged stale or nearby-family answers (X-Degraded header)
// before shedding. A plain kcserved serves exactly the pre-hardening
// bytes. -fault-spec injects serving-layer chaos deterministically from
// -fault-seed: the Serving classes of the one fault grammar (cache disk
// delays and errors, measurement failures, handler latency, peer-fetch
// delays and errors); the MPI-world classes couple and npbrun take are
// refused.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/plan"
	"repro/internal/predict"
	"repro/internal/serve"
	"repro/internal/tables"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "kcserved: %v\n", err)
		os.Exit(1)
	}
}

// guardFlags are the flags whose presence assembles the serving guard.
var guardFlags = map[string]bool{
	"deadline": true, "deadline-measure": true, "max-inflight": true,
	"queue": true, "breaker-failures": true, "breaker-cooldown": true,
	"stale": true,
}

// run is the whole process behind main: it parses args, serves until ctx
// is cancelled (what SIGINT/SIGTERM do) or the listener fails, drains,
// and writes the shutdown artifacts. Every failure is a returned error,
// so deferred cleanup runs on every exit path.
func run(ctx context.Context, args []string, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("kcserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8640", "listen address")
		cacheDir = fs.String("cache-dir", "", "measurement cache directory to serve from (required)")
		measure  = fs.Bool("measure", false, "measure cache misses on demand instead of returning 404")
		workers  = fs.Int("measure-workers", 1, "bound on concurrent on-demand measurement studies")
		netModel = fs.Bool("net", false, "serve the net-modeled cache namespace (must match the warming run's -net)")
		backends = fs.String("backends", "", "comma-separated default predictor chain, tried in order (measured, cached, interpolated, analytic; empty = cached then measured when -measure)")
		lattice  = fs.String("lattice", "", "interpolation lattice: ';'-separated query items, e.g. \"bench=BT&grid=6;bench=BT&grid=8\"")
		metrics  = fs.String("metrics-out", "", "write a run manifest with the final metric snapshot on shutdown")
		grace    = fs.Duration("shutdown-grace", 30*time.Second, "how long shutdown waits for in-flight requests to drain")

		notrace   = fs.Bool("notrace", false, "disable request tracing and the flight recorder")
		slowMs    = fs.Int("slow-ms", 0, "slow-request threshold in milliseconds (0 disables); slow requests auto-flush the flight recorder")
		flightOut = fs.String("flight-out", "", "flight-recorder dump path, written on errors/slow requests and at shutdown")

		deadline     = fs.Duration("deadline", 0, "default per-request deadline budget for query endpoints (0 = none)")
		deadlineMeas = fs.Duration("deadline-measure", 0, "detached on-demand measurement budget once a caller abandons (0 = unbounded)")
		maxInflight  = fs.Int("max-inflight", 0, "bound on concurrently served query requests; excess queues then sheds 503 (0 = unbounded)")
		queueDepth   = fs.Int("queue", 0, "admission queue depth (default 2x -max-inflight)")
		brkFailures  = fs.Int("breaker-failures", 0, "consecutive dependency failures that open a circuit breaker (default 5)")
		brkCooldown  = fs.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (default 5s)")
		staleCap     = fs.Int("stale", 64, "stale-answer cache capacity for degraded serving (0 disables the ladder)")
		faultSpec    = fs.String("fault-spec", "", "serving-layer chaos spec: "+fault.Serving.Usage())
		faultSeed    = fs.Uint64("fault-seed", 1, "seed for fault injection decisions and breaker cooldown jitter")

		peers       = fs.String("peers", "", "comma-separated fleet member addresses (enables clustering; every node must get the same set)")
		self        = fs.String("self", "", "this node's own entry in -peers (required with -peers)")
		peerHot     = fs.Int("peer-hot", 0, "requests per window that make a foreign-owned key hot enough to replicate locally (default 8, negative disables)")
		peerTimeout = fs.Duration("peer-fill-timeout", 0, "peer-fill round-trip budget, including owner-side on-demand measurement (default 30s)")

		httpReadHeader = fs.Duration("http-read-header-timeout", 0, "listener header-read timeout (0 = 5s default, negative disables)")
		httpRead       = fs.Duration("http-read-timeout", 0, "listener request-read timeout (0 = 30s default, negative disables)")
		httpWrite      = fs.Duration("http-write-timeout", 0, "listener response-write timeout (0 = 2m default, negative disables)")
		httpIdle       = fs.Duration("http-idle-timeout", 0, "listener keep-alive idle timeout (0 = 2m default, negative disables)")
	)
	var oflags obscli.ServeFlags
	oflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Hardening is assembled only when some guard flag was given, so a
	// plain kcserved serves exactly the pre-hardening bytes and allocs.
	guardOn := false
	fs.Visit(func(f *flag.Flag) {
		if guardFlags[f.Name] {
			guardOn = true
		}
	})

	if *cacheDir == "" {
		return errors.New("-cache-dir is required")
	}
	cache, err := plan.NewDirCache(*cacheDir)
	if err != nil {
		return fmt.Errorf("-cache-dir: %w", err)
	}
	// Deferred first, so it runs last: after the drain and the dumps. A
	// measurement that outlived the drain then reports a failed persist.
	defer cache.Close()
	reg := obs.NewRegistry()
	var tracer *obs.RequestTracer
	if !*notrace {
		tracer = obs.NewRequestTracer(obs.TracerConfig{
			Recorder:  obs.NewFlightRecorder(0, 0),
			Slow:      time.Duration(*slowMs) * time.Millisecond,
			FlushPath: *flightOut,
		})
	}
	accessLog, logCloser, err := oflags.OpenAccessLog()
	if err != nil {
		return err
	}
	if logCloser != nil {
		defer func() {
			if cerr := logCloser.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("-log-out: %w", cerr)
			}
		}()
	}
	var g *guard.Guard
	if guardOn {
		g = guard.New(guard.Config{
			Deadline:        *deadline,
			LeaderBudget:    *deadlineMeas,
			MaxInflight:     *maxInflight,
			QueueDepth:      *queueDepth,
			BreakerFailures: *brkFailures,
			BreakerCooldown: *brkCooldown,
			StaleCap:        *staleCap,
			Seed:            *faultSeed,
			Metrics:         reg,
		})
	}
	spec, err := fault.Parse(*faultSpec)
	if err == nil {
		err = spec.Only(fault.Serving)
	}
	if err != nil {
		return fmt.Errorf("-fault-spec: %w", err)
	}
	inj := fault.NewServeInjector(spec, *faultSeed, reg)
	if inj != nil {
		fmt.Fprintf(stderr, "kcserved: CHAOS fault injection active: %s (seed %d)\n", spec, *faultSeed)
	}
	var cl *cluster.Cluster
	if *peers != "" {
		if *self == "" {
			return errors.New("-peers requires -self (this node's own entry in the peer list)")
		}
		cl, err = cluster.New(cluster.Config{
			Self:            *self,
			Peers:           strings.Split(*peers, ","),
			HotThreshold:    *peerHot,
			FillTimeout:     *peerTimeout,
			BreakerFailures: *brkFailures,
			BreakerCooldown: *brkCooldown,
			Seed:            *faultSeed,
			Metrics:         reg,
			Inject:          inj,
		})
		if err != nil {
			return fmt.Errorf("-peers/-self: %w", err)
		}
		fmt.Fprintf(stderr, "kcserved: cluster node %s of %v\n", *self, cl.Nodes())
	} else if *self != "" {
		return errors.New("-self without -peers (give the full member list, this node included)")
	}
	var chain []string
	if *backends != "" {
		chain = strings.Split(*backends, ",")
	}
	var latticeQs []predict.Query
	if *lattice != "" {
		latticeQs, err = tables.ParseLattice(*lattice)
		if err != nil {
			return fmt.Errorf("-lattice: %w", err)
		}
	}
	srv, err := serve.New(serve.Config{
		Cache:          cache,
		Metrics:        reg,
		Net:            *netModel,
		Measure:        *measure,
		MeasureWorkers: *workers,
		Tracer:         tracer,
		AccessLog:      accessLog,
		Guard:          g,
		Inject:         inj,
		Backends:       chain,
		Lattice:        latticeQs,
		Cluster:        cl,
	})
	if err != nil {
		return err
	}
	// Final flight-recorder dump: whatever the recorder held when the
	// service stopped — drained, stuck or never listening — is exactly
	// what a post-mortem wants to read.
	defer func() {
		if ferr := tracer.Flush(); ferr != nil {
			fmt.Fprintf(stderr, "kcserved: flight dump: %v\n", ferr)
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	hs := serve.NewHTTPServer("", srv.Handler(), serve.HTTPTimeouts{
		ReadHeader: *httpReadHeader,
		Read:       *httpRead,
		Write:      *httpWrite,
		Idle:       *httpIdle,
	})
	start := time.Now()
	fmt.Fprintf(stderr, "kcserved: serving %s on http://%s (measure=%v)\n", *cacheDir, ln.Addr(), *measure)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	var serveErr error
	select {
	case <-ctx.Done():
		fmt.Fprintln(stderr, "kcserved: shutting down — draining in-flight requests")
		dctx, cancel := context.WithTimeout(context.Background(), *grace)
		serveErr = hs.Shutdown(dctx)
		cancel()
		if serveErr != nil {
			// Requests outlived the grace period: cut their connections
			// so nothing is left serving, and report the blown drain.
			hs.Close()
			serveErr = fmt.Errorf("in-flight requests did not drain within -shutdown-grace %v: %w", *grace, serveErr)
		}
	case serveErr = <-errc:
	}

	if *metrics != "" {
		man := obs.NewManifest("kcserved")
		man.UnixSeconds = start.Unix()
		man.WallSeconds = time.Since(start).Seconds()
		man.Extra = map[string]string{"addr": ln.Addr().String(), "cache_dir": *cacheDir}
		snap := reg.Snapshot()
		man.Metrics = &snap
		if merr := man.WriteFile(*metrics); merr != nil {
			return errors.Join(serveErr, merr)
		}
	}
	return serveErr
}
