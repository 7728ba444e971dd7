package main

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
)

// openRate is serve_warm's phase-B arrival rate: about 30 % of what the
// closed loop sustains on the 2-vCPU sandbox, so the server is loaded
// but the schedule, not the server, decides when requests arrive.
const openRate = 2000

// openSlice is one round of phase B: 1000 arrivals, ten of them beyond
// the p99.
const openSlice = 500 * time.Millisecond

// warmFixture is serve_warm's system under test: one plain server — no
// tracer, guard or cluster — over a memory cache, behind a real
// listener, with every key of the population measured once.
type warmFixture struct {
	cache *plan.Cache
	reg   *obs.Registry
	srv   *serve.Server
	ts    *httptest.Server
	t     *targets
}

func startWarm(keys []key, chk *checker) (*warmFixture, error) {
	fx := &warmFixture{cache: plan.NewCache(), reg: obs.NewRegistry()}
	srv, err := serve.New(serve.Config{Cache: fx.cache, Metrics: fx.reg, Measure: true})
	if err != nil {
		return nil, err
	}
	fx.srv = srv
	fx.ts = httptest.NewServer(srv.Handler())
	fx.t = newTargets("warm", []string{fx.ts.URL}, keys)
	// Warm-up: the first request for a key measures it on demand; its
	// body carries that execution and is not a reference for later ones.
	cl := newClient()
	defer cl.close()
	for k := range keys {
		status, body, err := cl.get(fx.t.url(request{key: k}))
		chk.response("", epPredict, status, body, err)
	}
	return fx, nil
}

func (fx *warmFixture) close() { fx.ts.Close() }

func runServeWarm(cfg runCfg) (*result, error) {
	res := newResult("serve_warm")
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

	var fx *warmFixture
	var setups []float64
	for i := 0; i < cfg.setups(); i++ {
		if fx != nil {
			fx.close()
		}
		ctl.mark()
		t0 := time.Now()
		if fx, err = startWarm(keys, chk); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fx.close()

	if cfg.traced {
		return res, traceServeWarm(cfg, fx, chk, res)
	}

	rounds, workDur := cfg.closedRounds(0.8)
	runClosedPhase(fx.t, streamsFor(cfg.seed, len(keys), 1, false), ctl, rounds, workDur, chk).
		report(res, fmt.Sprintf("zipf s=1.2 over %d keys", len(keys)), workDur)

	openRounds := cfg.openRounds()
	open := runOpenPhase(fx.t, streamsFor(cfg.seed+1, len(keys), 1, false), ctl, openRate, openRounds, openSlice, chk)
	res.e2e["open_p50_us"] = open.p50.time()
	res.info["raw_open_p50_us"], res.info["raw_open_p99_us"] = median(open.p50.raw), median(open.tailUs)
	res.info["open"] = fmt.Sprintf("%d req/s in %d rounds of %v between control slices, %d samples, latency from intended send, median over rounds of each round's p50 (raw_open_p99_us: of its p%.0f), generator late p99 %.0f us",
		openRate, openRounds, openSlice, open.samples, open.tailQ*100, quantile(sortedCopy(open.lateUs), 0.99))
	res.e2e["setup_s"] = median(setups) / ctl.window(0)
	res.info["raw_setups_s"] = setups
	ctl.describe(res.info)
	return res, nil
}

// traceServeWarm is the traced run: short untraced and traced closed
// loops alternate, so a drift in host speed lands on both sides of the
// overhead figure; every sampleEvery-th traced request is replayed
// layer by layer under one request id.
func traceServeWarm(cfg runCfg, fx *warmFixture, chk *checker, res *result) error {
	tr := newTracer()
	rp := &replayer{plain: fx.srv.Handler(), cache: fx.cache}
	sample := func(_ int, r request, start time.Time, lat time.Duration) {
		id := tr.request()
		root := tr.record(id, 0, "http.roundtrip", start, lat, false)
		ok := rp.replay(tr, id, root, r.endpoint, fx.t.keys[r.key])
		chk.op(ok, "replay of %s failed", fx.t.id(r))
	}
	rounds, d := cfg.traceRounds()
	var plainP50, tracedP50 []float64
	minSamples := -1
	for i := 0; i < rounds; i++ {
		seed := cfg.seed + uint64(2*i)
		u := statOf(closedLoop(fx.t, streamsFor(seed, len(fx.t.keys), 1, false), d, discardPerSlice, chk, nil), d)
		t := statOf(closedLoop(fx.t, streamsFor(seed+1, len(fx.t.keys), 1, false), d, discardPerSlice, chk, sample), d)
		plainP50 = append(plainP50, u.p50us)
		tracedP50 = append(tracedP50, t.p50us)
		if minSamples < 0 || u.n < minSamples {
			minSamples = u.n
		}
	}
	var openTail, lateUs []float64
	for i := 0; i < rounds; i++ {
		o := openLoop(fx.t, streamsFor(cfg.seed+uint64(i), len(fx.t.keys), 1, false), openRate, openSlice, discardPerSlice, nil, chk)
		openTail = append(openTail, quantile(sortedMicros(o.lat), tailQuantile(len(o.lat))))
		lateUs = append(lateUs, micros(o.late)...)
	}

	// What a sampled round trip spent outside the handler: its own
	// duration minus its own replayed handler call.
	roundTrips, handlers := map[int]float64{}, map[int]float64{}
	for _, s := range tr.spans {
		switch s.name {
		case "http.roundtrip":
			roundTrips[s.request] = float64(s.dur.Nanoseconds()) / 1e3
		case "serve.handler":
			handlers[s.request] = float64(s.dur.Nanoseconds()) / 1e3
		}
	}
	var overheads []float64
	for id, rt := range roundTrips {
		if h, ok := handlers[id]; ok {
			overheads = append(overheads, rt-h)
		}
	}
	sort.Float64s(overheads)

	l := res.layers
	untraced := median(plainP50)
	l["serve.handler_us"] = median(tr.durations("serve.handler"))
	l["serve.http_overhead_us"] = median(overheads)
	l["serve.parse_ns"] = median(tr.durations("serve.parse")) * 1e3
	l["serve.key_ns"] = median(tr.durations("serve.key")) * 1e3
	l["serve.render_ns"] = median(tr.durations("serve.render")) * 1e3
	l["harness.run_from_cache_us"] = median(tr.durations("harness.run_from_cache"))
	l["harness.plan_us"] = median(tr.durations("harness.plan"))
	l["harness.analyze_us"] = median(tr.durations("harness.analyze"))
	children := (l["serve.parse_ns"]+l["serve.key_ns"]+l["serve.render_ns"])/1e3 + l["harness.run_from_cache_us"]
	l["serve.handler_self_us"] = l["serve.handler_us"] - children
	l["serve.handler_allocs"], l["serve.handler_bytes"] = handlerAllocs(rp.plain, fx.t.keys[0], 500)
	l["serve.p99_slice_samples"] = float64(minSamples)
	l["trace.overhead_share"] = (median(tracedP50) - untraced) / untraced
	l["serve.open_p99_us"] = median(openTail)
	l["loadgen.late_p99_us"] = quantile(sortedCopy(lateUs), 0.99)
	l["singleflight.shared_share"] = float64(fx.reg.Counter("serve.singleflight.shared").Value()) / float64(fx.reg.Counter("serve.req.predict.count").Value())

	// Layer budget, from outside: the replayed handler plus what the
	// sampled round trips spent outside it must land on the untraced p50,
	// and the handler's named children must fit inside it.
	// Both are statements about timing, which smoke scale is too short
	// to make.
	gap := (l["serve.http_overhead_us"] + l["serve.handler_us"] - untraced) / untraced
	if gap < 0 {
		gap = -gap
	}
	l["serve.budget_gap_share"] = gap
	chk.check(cfg.smoke || gap <= 0.10, "layer budget: http_overhead %.1f + handler %.1f us is %.1f%% away from untraced p50 %.1f us",
		l["serve.http_overhead_us"], l["serve.handler_us"], gap*100, untraced)
	chk.check(cfg.smoke || l["serve.handler_self_us"] >= 0, "layer budget: handler children %.1f us exceed handler %.1f us", children, l["serve.handler_us"])
	res.info["untraced_p50_us"] = untraced
	res.info["traced_requests"] = len(roundTrips)

	probeLayers(cfg, res, chk)
	return tr.write(cfg.tracePath())
}
