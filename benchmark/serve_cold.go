package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
)

// readerRate is client B's pace while client A sweeps the cold keys.
const readerRate = 200

// coldFixture is serve_cold's system under test: one server over a
// cache directory, measuring misses one study at a time.
type coldFixture struct {
	reg *obs.Registry
	ts  *httptest.Server
}

func startCold(dir string, measure bool) (*coldFixture, error) {
	cache, err := plan.NewDirCache(dir)
	if err != nil {
		return nil, err
	}
	fx := &coldFixture{reg: obs.NewRegistry()}
	srv, err := serve.New(serve.Config{Cache: cache, Metrics: fx.reg, Measure: measure, MeasureWorkers: 1})
	if err != nil {
		return nil, err
	}
	fx.ts = httptest.NewServer(srv.Handler())
	return fx, nil
}

// jobKeys lists the content addresses of the measurements a key's study
// plans — what the sweep uses to know, before asking, how many of them
// the server's cache cannot hold yet.
func jobKeys(k key) ([]string, error) {
	pq := k.q.PredictQuery()
	eng, err := engineFor(pq, nil)
	if err != nil {
		return nil, err
	}
	jobs, err := eng.Plan(pq.Trips, pq.Chains)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key()
	}
	return keys, nil
}

// coldSweep is one complete pass of the workload on a fresh directory,
// in raw times.
type coldSweep struct {
	setupS, sweepS         float64
	measuredMs, sharedUs   []float64 // cold requests that ran worlds; cold requests the job cache answered whole
	readerUs, readerLateUs []float64
	restartUs              []float64
	// speed is the host-speed factor over the sweep's own control
	// slices; restartSpeed the one the restart reads ran between.
	speed, restartSpeed float64
}

// sweepCold runs set-up (server start, reader keys warmed), the cold
// sweep with the paced reader beside it, a warm re-read that fixes each
// key's reference body, and the restart read. Every sweep measures
// afresh, so it checks bodies against its own references only.
func sweepCold(cfg runCfg, dir string, seed uint64, ctl *control, tr *tracer, res *result) (*coldSweep, error) {
	chk := newChecker()
	defer res.absorb(chk)
	groups, readers := coldGroups(cfg.smoke), readerKeys(cfg.smoke)
	cold := flatten(groups)
	defer os.RemoveAll(dir)
	var sw coldSweep

	ctl.mark()
	first := ctl.slices() - 1
	t0 := time.Now()
	fx, err := startCold(dir, true)
	if err != nil {
		return nil, err
	}
	defer fx.ts.Close()
	readT := newTargets("reader", []string{fx.ts.URL}, readers)
	a := newClient()
	defer a.close()
	for k := range readers {
		status, body, err := a.get(readT.url(request{key: k}))
		chk.response("", epPredict, status, body, err)
	}
	sw.setupS = time.Since(t0).Seconds()
	ctl.mark()

	// Client B reads warm keys on a schedule while client A, alone and
	// sequential, asks for every cold key once. What each key plans is
	// worked out first, so the sweep's wall time holds none of it.
	coldT := newTargets("cold", []string{fx.ts.URL}, cold)
	order := coldOrder(seed, groups)
	plans := make([][]string, len(cold))
	for k := range cold {
		if plans[k], err = jobKeys(cold[k]); err != nil {
			return nil, err
		}
	}
	stop := make(chan struct{})
	readerDone := make(chan openResult, 1)
	go func() {
		readerDone <- openLoop(readT, []*stream{newStream(seed, 1, len(readers), 1, false)}, readerRate, 0, discardPerSlice, stop, chk)
	}()
	inCache := map[string]bool{}
	measuring := 0
	sweepStart := time.Now()
	for _, k := range order {
		jobs, missing := plans[k], 0
		for _, j := range jobs {
			if !inCache[j] {
				missing++
				inCache[j] = true
			}
		}
		t1 := time.Now()
		status, body, err := a.get(coldT.url(request{key: k}))
		lat := time.Since(t1)
		tr.record(tr.request(), 0, "http.cold_predict", t1, lat, false)
		chk.response("", epPredict, status, body, err)
		// A cold answer reports what it cost: exactly the jobs no earlier
		// key of the sweep had measured may run a world, the rest must
		// come from the job cache.
		var resp serve.PredictResponse
		if err == nil && json.Unmarshal(body, &resp) == nil {
			chk.check(resp.Exec.Planned == len(jobs) && resp.Exec.Executed == missing && resp.Exec.CacheHits == len(jobs)-missing,
				"%s: planned %d executed %d cache hits %d, want %d planned of which %d missing", cold[k].qs, resp.Exec.Planned, resp.Exec.Executed, resp.Exec.CacheHits, len(jobs), missing)
		}
		if missing > 0 {
			measuring++
			sw.measuredMs = append(sw.measuredMs, lat.Seconds()*1e3)
		} else {
			sw.sharedUs = append(sw.sharedUs, float64(lat.Nanoseconds())/1e3)
		}
	}
	sw.sweepS = time.Since(sweepStart).Seconds()
	close(stop)
	reader := <-readerDone
	sw.readerUs, sw.readerLateUs = micros(reader.lat), micros(reader.late)

	measured := fx.reg.Counter("serve.measure.ondemand").Value()
	chk.check(measured == int64(measuring+len(readers)), "server measured on demand %d times for %d keys with missing jobs", measured, measuring+len(readers))

	// The reference body for a key is its first warm answer.
	for k := range cold {
		r := request{key: k}
		status, body, err := a.get(coldT.url(r))
		chk.response(coldT.id(r), epPredict, status, body, err)
	}
	fx.ts.Close()

	// Restart: a new server that may not measure, over the same
	// directory with an empty memory tier. Every first read comes from
	// disk and must be the body the old server gave. One pass over the
	// keys lasts some 30 ms, too short a window to repeat on this host,
	// and a key can be read first only once per restart: so restart
	// restarts times and pool the reads.
	ctl.mark()
	for i := 0; i < restarts; i++ {
		if err := readRestarted(dir, cold, &sw, tr, chk); err != nil {
			return nil, err
		}
	}
	sw.restartSpeed = ctl.since()
	sw.speed = ctl.window(first)
	return &sw, nil
}

// restarts is how many times a sweep reopens its directory.
const restarts = 3

// readRestarted opens dir with a fresh cache and a server that may not
// measure, and reads every key once.
func readRestarted(dir string, cold []key, sw *coldSweep, tr *tracer, chk *checker) error {
	fx, err := startCold(dir, false)
	if err != nil {
		return err
	}
	defer fx.ts.Close()
	t := newTargets("cold", []string{fx.ts.URL}, cold)
	cl := newClient()
	defer cl.close()
	if status, body, err := cl.get(fx.ts.URL + "/healthz"); err != nil || status != 200 {
		return fmt.Errorf("restarted server unhealthy: %d %s %v", status, body, err)
	}
	for k := range cold {
		r := request{key: k}
		t1 := time.Now()
		status, body, err := cl.get(t.url(r))
		lat := time.Since(t1)
		tr.record(tr.request(), 0, "http.restart_read", t1, lat, false)
		sw.restartUs = append(sw.restartUs, float64(lat.Nanoseconds())/1e3)
		chk.response(t.id(r), epPredict, status, body, err)
	}
	return nil
}

func runServeCold(cfg runCfg) (*result, error) {
	res := newResult("serve_cold")
	res.clients = 2 // client A and the paced reader; control slices run between sweeps, not beside them
	cold := flatten(coldGroups(cfg.smoke))
	res.info["population"] = populationHash(cold)
	res.info["keys"] = len(cold)
	chk := newChecker()
	defer res.absorb(chk)
	ctl, err := startControl(chk)
	if err != nil {
		return nil, err
	}
	defer ctl.close()
	if cfg.traced {
		return res, traceServeCold(cfg, ctl, chk, res)
	}

	var setup, sweep, coldP50, readerP50, restartP50 corrected
	readerSamples, measuring := 0, 0
	for i := 0; i < cfg.repeats(); i++ {
		sw, err := sweepCold(cfg, filepath.Join(cfg.workDir, fmt.Sprintf("cold%d", i)), cfg.seed+uint64(i), ctl, nil, res)
		if err != nil {
			return nil, err
		}
		setup.add(sw.setupS, sw.speed)
		sweep.add(sw.sweepS, sw.speed)
		coldP50.add(median(sw.measuredMs), sw.speed)
		readerP50.add(median(sw.readerUs), sw.speed)
		restartP50.add(median(sw.restartUs), sw.restartSpeed)
		readerSamples += len(sw.readerUs)
		measuring = len(sw.measuredMs)
	}
	res.e2e["setup_s"] = setup.time()
	res.e2e["cold_sweep_s"] = sweep.time()
	res.e2e["cold_p50_ms"] = coldP50.time()
	res.e2e["reader_p50_us"] = readerP50.time()
	res.e2e["restart_read_p50_us"] = restartP50.time()
	res.info["sweeps"] = fmt.Sprintf("%d sweeps, each on a fresh directory: %d cold keys by one sequential client, groups interleaved by the seed; %d of them find jobs missing and measure (cold_p50_ms is their median), the rest are answered from jobs earlier keys measured; %d reader keys at %d req/s beside it (%d reads in all); then a restart and one read per key",
		cfg.repeats(), len(cold), measuring, len(readerKeys(cfg.smoke)), readerRate, readerSamples)
	res.info["raw_setups_s"], res.info["raw_cold_sweeps_s"] = setup.raw, sweep.raw
	res.info["raw_cold_p50_ms"], res.info["raw_reader_p50_us"], res.info["raw_restart_read_p50_us"] = median(coldP50.raw), median(readerP50.raw), median(restartP50.raw)
	ctl.describe(res.info)
	return res, nil
}

// traceServeCold is the traced run: one sweep as the untraced run does
// it, then one with a span around every cold request and restart read.
func traceServeCold(cfg runCfg, ctl *control, chk *checker, res *result) error {
	plain, err := sweepCold(cfg, filepath.Join(cfg.workDir, "cold-plain"), cfg.seed, ctl, nil, res)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := sweepCold(cfg, filepath.Join(cfg.workDir, "cold-traced"), cfg.seed, ctl, tr, res)
	if err != nil {
		return err
	}
	l := res.layers
	l["trace.overhead_share"] = (median(traced.measuredMs) - median(plain.measuredMs)) / median(plain.measuredMs)
	l["loadgen.late_p99_us"] = quantile(sortedCopy(append(plain.readerLateUs, traced.readerLateUs...)), 0.99)
	l["serve.shared_cold_us"] = median(append(plain.sharedUs, traced.sharedUs...))
	probeLayers(cfg, res, chk)
	return tr.write(cfg.tracePath())
}
