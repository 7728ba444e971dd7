package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/plan"
	"repro/internal/predict"
	"repro/internal/singleflight"
	"repro/internal/tables"
)

// probeLayers fills in, for every traced run, the per-layer metrics
// that are a property of a layer rather than of a workload: each is a
// timed call into the layer's public API on a small fixed input. Where
// the workload's own traced pass already measured a layer on its own
// traffic, that number stands and the probe's is dropped.
func probeLayers(cfg runCfg, res *result, chk *checker) {
	probed := map[string]float64{}
	probeServing(cfg, probed, chk)
	probePlan(cfg, probed, chk)
	probeMPI(probed, chk)
	probeGuardObsCluster(probed)
	for n, v := range probed {
		if _, ok := res.layers[n]; !ok {
			res.layers[n] = v
		}
	}
}

// probeServing measures the serving stack's layers by replaying one
// warm key through plain, guarded and traced servers, and the predictor
// backends through tables.NewBackend.
func probeServing(cfg runCfg, out map[string]float64, chk *checker) {
	dir := filepath.Join(cfg.workDir, "probe")
	defer os.RemoveAll(dir)
	cache, err := plan.NewDirCache(dir)
	if err != nil {
		chk.op(false, "probe cache: %v", err)
		return
	}
	// Two neighbouring grids: the replayed key, and with it the lattice
	// the interpolated backend needs to answer a third.
	k := mustKey("bench=BT&grid=6&trips=2&procs=4&chains=2&blocks=3")
	k8 := mustKey("bench=BT&grid=8&trips=2&procs=4&chains=2&blocks=3")
	k10 := mustKey("bench=BT&grid=10&trips=2&procs=4&chains=2&blocks=3")
	run := tables.BackendConfig{Cache: cache}.StudyRunner()
	for _, w := range []key{k, k8} {
		if _, err := run(context.Background(), w.q.PredictQuery()); err != nil {
			chk.op(false, "probe warm-up: %v", err)
			return
		}
	}
	rp, err := probeTrio(dir)
	if err != nil {
		chk.op(false, "probe servers: %v", err)
		return
	}
	tr := newTracer()
	n := 300
	if cfg.smoke {
		n = 30
	}
	ok := true
	for i := 0; i < n; i++ {
		ok = rp.replay(tr, tr.request(), 0, epPredict, k) && ok
		if i%10 == 0 {
			ok = rp.replay(tr, tr.request(), 0, epCouplings, k) && ok
			ok = rp.replay(tr, tr.request(), 0, epAnalytic, k) && ok
		}
	}
	chk.op(ok, "probe replay failed")
	us := func(name string) float64 { return median(tr.durations(name)) }
	out["serve.handler_us"] = us("serve.handler")
	out["serve.couplings_us"] = us("serve.handler.couplings")
	out["serve.analytic_us"] = us("serve.handler.analytic")
	out["serve.parse_ns"] = us("serve.parse") * 1e3
	out["serve.key_ns"] = us("serve.key") * 1e3
	out["serve.render_ns"] = us("serve.render") * 1e3
	out["harness.run_from_cache_us"] = us("harness.run_from_cache")
	out["harness.plan_us"] = us("harness.plan")
	out["harness.analyze_us"] = us("harness.analyze")
	out["serve.handler_self_us"] = us("serve.handler") - us("serve.parse") - us("serve.key") - us("serve.render") - us("harness.run_from_cache")
	out["guard.handler_overhead_us"] = us("serve.handler+guard") - us("serve.handler")
	out["obs.tracer_overhead_us"] = us("serve.handler+tracer") - us("serve.handler")
	out["serve.handler_allocs"], out["serve.handler_bytes"] = handlerAllocs(rp.plain, k, 200)
	tracedAllocs, _ := handlerAllocs(rp.traced, k, 200)
	out["obs.tracer_allocs"] = tracedAllocs - out["serve.handler_allocs"]
	out["serve.encode_ns"] = medianOf(100, 20, func() { _ = k.q.Encode() })

	var rec recorder
	rec.reset()
	rp.plain.ServeHTTP(&rec, httptest.NewRequest(http.MethodGet, pathFor(epPredict, k), nil))
	out["serve.body_bytes"] = float64(rec.body.Len())
	metricsReq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	out["obs.metrics_snapshot_us"] = medianOf(20, 1, func() {
		rec.reset()
		rp.plain.ServeHTTP(&rec, metricsReq)
	}) / 1e3

	lattice := []predict.Query{k.q.PredictQuery(), k8.q.PredictQuery()}
	for _, b := range []struct {
		name string
		q    predict.Query
	}{{"cached", k.q.PredictQuery()}, {"analytic", k.q.PredictQuery()}, {"interpolated", k10.q.PredictQuery()}} {
		p, err := tables.NewBackend(b.name, tables.BackendConfig{Cache: rp.cache, Lattice: lattice})
		if err != nil {
			chk.op(false, "backend %s: %v", b.name, err)
			continue
		}
		out["predict."+b.name+"_us"] = medianOf(50, 1, func() {
			if _, err := p.Predict(context.Background(), b.q); err != nil {
				ok = false
			}
		}) / 1e3
	}
	chk.op(ok, "a predictor backend refused its probe query")

	eng, err := engineFor(k.q.PredictQuery(), rp.cache)
	if err != nil {
		return
	}
	if st, err := eng.RunFromCache(k.q.Trips, k.q.Chains); err == nil {
		out["core.coupling_prediction_ns"] = medianOf(100, 10, func() {
			_, _ = st.App.CouplingPrediction(st.Measurements, k.q.Chains[0], core.CoefficientOptions{})
		})
	}
}

// probePlan measures the plan layer on the probe key's own jobs: key
// hashing, enumeration, the executor's per-job bookkeeping, and the
// cache's three tiers of cost — memory hit, first disk read, disk write.
func probePlan(cfg runCfg, out map[string]float64, chk *checker) {
	q := mustKey("bench=BT&grid=6&trips=2&procs=4&chains=2,3&blocks=3").q.PredictQuery()
	dir := filepath.Join(cfg.workDir, "probe-plan")
	defer os.RemoveAll(dir)
	disk, err := plan.NewDirCache(dir)
	if err != nil {
		chk.op(false, "probe cache: %v", err)
		return
	}
	eng, err := engineFor(q, disk)
	if err != nil {
		chk.op(false, "probe engine: %v", err)
		return
	}
	jobs, err := eng.Plan(q.Trips, q.Chains)
	if err != nil || len(jobs) == 0 {
		chk.op(false, "probe plan: %v", err)
		return
	}
	res := plan.Result{Seconds: 1.5e-3, Raw: []float64{1.4e-3, 1.5e-3, 1.6e-3}, TrimFrac: 0.34, Passes: 1}
	puts := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		t0 := time.Now()
		err := disk.Put(j, res)
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			chk.op(false, "probe put: %v", err)
			return
		}
	}
	out["plan.cache_put_disk_us"] = median(puts)
	out["plan.cache_get_mem_ns"] = medianOf(100, 50, func() { disk.Get(jobs[0]) })
	gets := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		fresh, err := plan.NewDirCache(dir)
		if err != nil {
			return
		}
		t0 := time.Now()
		_, hit := fresh.Get(j)
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		if !hit {
			chk.op(false, "probe get: %s missing on disk", j.Key())
		}
	}
	out["plan.cache_get_disk_us"] = median(gets)
	out["plan.job_key_ns"] = medianOf(100, 20, func() { _ = jobs[0].Key() })
	app, err := tables.PredictApp(q)
	if err != nil {
		return
	}
	prob, _ := tables.PredictProblem(q)
	in := plan.Inputs{Workload: q.Workload(), Procs: q.Procs, Trips: q.Trips, ChainLens: q.Chains, Blocks: q.Blocks, Passes: q.Passes,
		ActualRuns: 3, WorldDigest: tables.WorldDigest(prob, nil)}
	out["plan.study_jobs_us"] = medianOf(100, 1, func() { _, _ = plan.StudyJobs(app, in) }) / 1e3
	noop := func(int, plan.Job) (plan.Result, error) { return res, nil }
	out["plan.executor_overhead_us"] = medianOf(50, 1, func() { plan.Executor{Parallel: 1}.Run(jobs, noop) }) / 1e3 / float64(len(jobs))

	// What a window measurement costs beyond the kernels it times.
	w := eng.Workload
	_, loop, _ := w.Kernels()
	t0 := time.Now()
	perPass, err := w.MeasureWindow(loop[:2], harness.Options{Blocks: q.Blocks, Passes: q.Passes})
	if err == nil {
		out["harness.window_overhead_ms"] = (time.Since(t0).Seconds() - perPass*float64(q.Blocks*q.Passes)) * 1e3
	}
}

// perOp spawns a world of ranks; each rank builds its operation (and
// the buffers it reuses) with mk, and rank 0's wall time over iters
// operations, divided by iters, is the result in ns.
func perOp(ranks, iters int, chk *checker, mk func(c *mpi.Comm) func()) float64 {
	var ns float64
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		op := mk(c)
		op() // one untimed pass: mailboxes and pools exist afterwards
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		if c.Rank() == 0 {
			ns = float64(time.Since(t0).Nanoseconds()) / float64(iters)
		}
	})
	chk.op(err == nil, "mpi probe: %v", err)
	return ns
}

func probeMPI(out map[string]float64, chk *checker) {
	out["mpi.world_spawn_us"] = medianOf(50, 1, func() { _ = mpi.Run(4, func(*mpi.Comm) {}) }) / 1e3
	pingpong := func(words int) func(c *mpi.Comm) func() {
		return func(c *mpi.Comm) func() {
			buf := make([]float64, words)
			if c.Rank() == 0 {
				return func() { c.Send(1, 7, buf); c.Recv(1, 9, buf) }
			}
			return func() { c.Recv(0, 7, buf); c.Send(0, 9, buf) }
		}
	}
	collective := func(words int, call func(c *mpi.Comm, in, res []float64)) func(c *mpi.Comm) func() {
		return func(c *mpi.Comm) func() {
			in, res := make([]float64, words), make([]float64, words)
			return func() { call(c, in, res) }
		}
	}
	out["mpi.pingpong_8B_ns"] = perOp(2, 5000, chk, pingpong(1))
	out["mpi.pingpong_64KiB_us"] = perOp(2, 500, chk, pingpong(8192)) / 1e3
	out["mpi.barrier_us"] = perOp(4, 2000, chk, collective(0, func(c *mpi.Comm, _, _ []float64) { c.Barrier() })) / 1e3
	out["mpi.allreduce_us"] = perOp(4, 2000, chk, collective(8, func(c *mpi.Comm, in, res []float64) { c.Allreduce(mpi.OpSum, in, res) })) / 1e3
	out["mpi.alltoall_us"] = perOp(4, 2000, chk, collective(32, func(c *mpi.Comm, in, res []float64) { c.Alltoall(in, res) })) / 1e3
}

func probeGuardObsCluster(out map[string]float64) {
	ctx := context.Background()
	adm := guard.NewAdmission(64, 128, nil, nil)
	out["guard.admission_ns"] = medianOf(100, 50, func() {
		if adm.Acquire(ctx) == nil {
			adm.Release(time.Microsecond)
		}
	})
	brk := guard.NewBreaker(guard.BreakerConfig{Name: "probe"})
	out["guard.breaker_ns"] = medianOf(100, 50, func() {
		if tk, err := brk.Allow(); err == nil {
			tk.Done(nil)
		}
	})
	stale := guard.NewStaleCache(64)
	out["guard.stale_put_get_ns"] = medianOf(100, 50, func() {
		stale.Put("BT.S.p4 g6 t2 b3 x1 c2", "BT.S.p4.g6", 1)
		stale.Get("BT.S.p4 g6 t2 b3 x1 c2", "BT.S.p4.g6")
	})
	rt := newReqTracer()
	out["obs.trace_start_finish_ns"] = medianOf(100, 50, func() { rt.Finish(rt.Start("predict"), http.StatusOK, "") })
	var sf singleflight.Group[string, int]
	out["singleflight.do_ns"] = medianOf(100, 50, func() { _, _, _ = sf.Do("k", func() (int, error) { return 1, nil }) })
	if ring, err := cluster.NewRing([]string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}, 0); err == nil {
		out["cluster.ring_owner_ns"] = medianOf(100, 50, func() { _ = ring.Owner("BT.S.p4 g6 t2 b3 x1 c2") })
	}
}
