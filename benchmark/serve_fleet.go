package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
)

const fleetSize = 3

// fleetGuard is the serving guard sized as the root
// BenchmarkServePredictGuarded sizes it: every request pays admission,
// budgets and the stale-cache put, and nothing sheds at two clients.
func fleetGuard(reg *obs.Registry) *guard.Guard {
	return guard.New(guard.Config{
		Deadline:        10 * time.Second,
		LeaderBudget:    10 * time.Second,
		MaxInflight:     64,
		QueueDepth:      128,
		BreakerFailures: 5,
		BreakerCooldown: 5 * time.Second,
		RetryRatio:      0.1,
		StaleCap:        64,
		Seed:            1,
		Metrics:         reg,
	})
}

func newReqTracer() *obs.RequestTracer {
	return obs.NewRequestTracer(obs.TracerConfig{Recorder: obs.NewFlightRecorder(0, 0)})
}

// fleetNode is one member: its own cache directory, registry, guard,
// request tracer and ring view, behind its own loopback listener.
type fleetNode struct {
	addr string
	dir  string
	reg  *obs.Registry
	cl   *cluster.Cluster
	srv  *serve.Server
	ts   *httptest.Server
}

// fleetFixture is serve_fleet's system under test: three servers in one
// process that share nothing but the peer protocol — a key is on disk
// only at its owner, so two thirds of requests need the owner's answer.
type fleetFixture struct {
	nodes []*fleetNode
	t     *targets
	// owner[e][k] is the index of the node the ring assigns (e, k) to.
	owner [numEndpoints][]int
}

func startFleet(keys []key, dir string, chk *checker) (*fleetFixture, error) {
	lns := make([]net.Listener, fleetSize)
	addrs := make([]string, fleetSize)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	fx := &fleetFixture{}
	bases := make([]string, fleetSize)
	for i, addr := range addrs {
		n := &fleetNode{addr: addr, dir: filepath.Join(dir, fmt.Sprintf("node%d", i)), reg: obs.NewRegistry()}
		cache, err := plan.NewDirCache(n.dir)
		if err != nil {
			return nil, err
		}
		if n.cl, err = cluster.New(cluster.Config{Self: addr, Peers: addrs, Metrics: n.reg}); err != nil {
			return nil, err
		}
		n.srv, err = serve.New(serve.Config{
			Cache: cache, Metrics: n.reg, Measure: true,
			Guard: fleetGuard(n.reg), Tracer: newReqTracer(), Cluster: n.cl,
		})
		if err != nil {
			return nil, err
		}
		n.ts = &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: n.srv.Handler()}}
		n.ts.Start()
		fx.nodes = append(fx.nodes, n)
		bases[i] = n.ts.URL
	}
	fx.t = newTargets("fleet", bases, keys)

	ring, err := cluster.NewRing(addrs, 0)
	if err != nil {
		return nil, err
	}
	index := map[string]int{}
	for i, a := range addrs {
		index[a] = i
	}
	for e := endpoint(0); e < numEndpoints; e++ {
		fx.owner[e] = make([]int, len(keys))
		for k, key := range keys {
			q := key.q
			if e == epAnalytic {
				q.Backend = "analytic"
			}
			fx.owner[e][k] = index[ring.Owner(q.Key())]
		}
	}

	// Warm-up sweep: each key once, entering at a rotating node, so the
	// owner measures it whether or not the request arrived there.
	cl := newClient()
	defer cl.close()
	for k := range keys {
		status, body, err := cl.get(fx.t.url(request{key: k, node: k % fleetSize}))
		chk.response("", epPredict, status, body, err)
	}
	return fx, nil
}

func (fx *fleetFixture) close() {
	for _, n := range fx.nodes {
		n.ts.Close()
		os.RemoveAll(n.dir)
	}
}

// counter sums a registry counter over the fleet; a trailing ".*"
// sums every counter with that prefix.
func (fx *fleetFixture) counter(name string) int64 {
	var total int64
	for _, n := range fx.nodes {
		if !strings.HasSuffix(name, ".*") {
			total += n.reg.Counter(name).Value()
			continue
		}
		for _, c := range n.reg.Snapshot().Counters {
			if strings.HasPrefix(c.Name, strings.TrimSuffix(name, "*")) {
				total += c.Value
			}
		}
	}
	return total
}

// verify checks the fleet-wide invariants a serving shortcut would
// break: every cold key measured exactly once across the fleet (a
// fallback to local resolution would measure it again), nothing shed.
func (fx *fleetFixture) verify(chk *checker) {
	chk.check(fx.counter("serve.measure.ondemand") == int64(len(fx.t.keys)),
		"fleet measured %d times for %d distinct cold keys", fx.counter("serve.measure.ondemand"), len(fx.t.keys))
	chk.check(fx.counter("guard.shed.*") == 0, "guard shed %d requests", fx.counter("guard.shed.*"))
	chk.check(fx.counter("serve.shed") == 0, "servers answered %d requests with 503", fx.counter("serve.shed"))
}

func runServeFleet(cfg runCfg) (*result, error) {
	res := newResult("serve_fleet")
	res.clients = numClients()
	chk := newChecker()
	defer res.absorb(chk)
	keys := warmKeys(cfg.smoke)
	res.info["population"] = populationHash(keys)
	res.info["keys"] = len(keys)
	ctl, err := startControl(chk)
	if err != nil {
		return nil, err
	}
	defer ctl.close()

	var fx *fleetFixture
	var setups []float64
	for i := 0; i < cfg.setups(); i++ {
		if fx != nil {
			fx.close()
		}
		ctl.mark()
		t0 := time.Now()
		if fx, err = startFleet(keys, filepath.Join(cfg.workDir, fmt.Sprintf("fleet%d", i)), chk); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fx.close()

	if cfg.traced {
		return res, traceServeFleet(cfg, fx, chk, res)
	}
	// The fleet has no open-loop phase: the closed loop gets the same
	// share of -seconds as serve_warm's, so the two p50s rest on equally
	// many rounds.
	rounds, workDur := cfg.closedRounds(0.8)
	runClosedPhase(fx.t, streamsFor(cfg.seed, len(keys), fleetSize, true), ctl, rounds, workDur, chk).
		report(res, fmt.Sprintf("entry node round-robin over %d nodes, 80%% /predict 10%% /couplings 10%% analytic, zipf s=1.2 over %d keys", fleetSize, len(keys)), workDur)
	res.e2e["setup_s"] = median(setups) / ctl.window(0)
	res.info["raw_setups_s"] = setups
	ctl.describe(res.info)
	fx.verify(chk)
	return res, nil
}

// probeTrio builds, over a node's cache directory, the three servers a
// replay compares: plain, plain + guard, plain + tracer. Each gets its
// own cache object on the directory, because a guarded server installs
// its disk breaker into the cache it is given.
func probeTrio(dir string) (*replayer, error) {
	build := func(cfg serve.Config) (http.Handler, *plan.Cache, error) {
		cache, err := plan.NewDirCache(dir)
		if err != nil {
			return nil, nil, err
		}
		cfg.Cache = cache
		srv, err := serve.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		return srv.Handler(), cache, nil
	}
	var rp replayer
	var err error
	if rp.plain, rp.cache, err = build(serve.Config{}); err != nil {
		return nil, err
	}
	if rp.guarded, _, err = build(serve.Config{Guard: fleetGuard(nil)}); err != nil {
		return nil, err
	}
	if rp.traced, _, err = build(serve.Config{Tracer: newReqTracer()}); err != nil {
		return nil, err
	}
	return &rp, nil
}

// traceServeFleet is the traced run: alternating untraced and traced
// closed loops; a sampled request is replayed on plain, guarded and
// traced servers over its owner's cache directory.
func traceServeFleet(cfg runCfg, fx *fleetFixture, chk *checker, res *result) error {
	tr := newTracer()
	trios := make([]*replayer, fleetSize)
	for i, n := range fx.nodes {
		var err error
		if trios[i], err = probeTrio(n.dir); err != nil {
			return err
		}
	}
	sample := func(_ int, r request, start time.Time, lat time.Duration) {
		id := tr.request()
		root := tr.record(id, 0, "http.roundtrip", start, lat, false)
		ok := trios[fx.owner[epPredict][r.key]].replay(tr, id, root, r.endpoint, fx.t.keys[r.key])
		chk.op(ok, "replay of %s failed", fx.t.id(r))
	}
	before := map[string]int64{}
	for _, c := range []string{"serve.req.predict.count", "serve.req.couplings.count", "cluster.proxied", "cluster.replica.hits", "serve.singleflight.shared"} {
		before[c] = fx.counter(c)
	}
	rounds, d := cfg.traceRounds()
	var plainP50, tracedP50 []float64
	var local, proxied []time.Duration
	for i := 0; i < rounds; i++ {
		seed := cfg.seed + uint64(2*i)
		u := closedLoop(fx.t, streamsFor(seed, len(fx.t.keys), fleetSize, true), d, discardPerSlice, chk, nil)
		t := closedLoop(fx.t, streamsFor(seed+1, len(fx.t.keys), fleetSize, true), d, discardPerSlice, chk, sample)
		plainP50 = append(plainP50, statOf(u, d).p50us)
		tracedP50 = append(tracedP50, statOf(t, d).p50us)
		for _, o := range u {
			if fx.owner[o.req.endpoint][o.req.key] == o.req.node {
				local = append(local, o.lat)
			} else {
				proxied = append(proxied, o.lat)
			}
		}
	}
	delta := func(name string) float64 { return float64(fx.counter(name) - before[name]) }
	requests := delta("serve.req.predict.count") + delta("serve.req.couplings.count")

	l := res.layers
	untraced := median(plainP50)
	l["serve.handler_us"] = median(tr.durations("serve.handler"))
	l["serve.couplings_us"] = median(tr.durations("serve.handler.couplings"))
	l["serve.analytic_us"] = median(tr.durations("serve.handler.analytic"))
	l["harness.run_from_cache_us"] = median(tr.durations("harness.run_from_cache"))
	children := (median(tr.durations("serve.parse")) + median(tr.durations("serve.key")) + median(tr.durations("serve.render"))) + l["harness.run_from_cache_us"]
	l["serve.handler_self_us"] = l["serve.handler_us"] - children
	l["guard.handler_overhead_us"] = median(tr.durations("serve.handler+guard")) - l["serve.handler_us"]
	l["obs.tracer_overhead_us"] = median(tr.durations("serve.handler+tracer")) - l["serve.handler_us"]
	plainAllocs, _ := handlerAllocs(trios[fx.owner[epPredict][0]].plain, fx.t.keys[0], 500)
	tracedAllocs, _ := handlerAllocs(trios[fx.owner[epPredict][0]].traced, fx.t.keys[0], 500)
	l["obs.tracer_allocs"] = tracedAllocs - plainAllocs
	metricsReq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	l["obs.metrics_snapshot_us"] = medianOf(20, 1, func() {
		var rec recorder
		rec.reset()
		fx.nodes[0].srv.Handler().ServeHTTP(&rec, metricsReq)
	}) / 1e3
	// One fill round trip, asked by a node that does not own the key.
	k0 := fx.t.keys[0]
	own := fx.owner[epPredict][0]
	asker := fx.nodes[(own+1)%fleetSize]
	l["cluster.fetch_us"] = medianOf(100, 1, func() {
		_, _, err := asker.cl.Fetch(context.Background(), fx.nodes[own].addr, k0.q.Encode())
		chk.op(err == nil, "peer fetch: %v", err)
	}) / 1e3
	l["cluster.local_share"] = 1 - (delta("cluster.proxied")+delta("cluster.replica.hits"))/requests
	l["cluster.proxied_share"] = delta("cluster.proxied") / requests
	l["cluster.replica_hit_share"] = delta("cluster.replica.hits") / requests
	l["cluster.local_p50_us"] = quantile(sortedMicros(local), 0.5)
	l["cluster.proxied_p50_us"] = quantile(sortedMicros(proxied), 0.5)
	l["singleflight.shared_share"] = delta("serve.singleflight.shared") / requests
	l["guard.shed"] = float64(fx.counter("guard.shed.*"))
	l["trace.overhead_share"] = (median(tracedP50) - untraced) / untraced
	fx.verify(chk)
	res.info["untraced_p50_us"] = untraced

	probeLayers(cfg, res, chk)
	return tr.write(cfg.tracePath())
}
