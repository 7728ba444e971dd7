package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stats"
)

// Engine is the three-layer measurement pipeline behind RunStudy: Plan
// enumerates the campaign as content-addressed jobs (internal/plan),
// Execute schedules them over a worker pool backed by the measurement
// cache, and Analyze computes the predictions from the results. RunStudy
// is a thin wrapper over it; commands that want parallelism, caching or
// cache-only re-analysis use the engine directly.
type Engine struct {
	Workload Workload
	Opts     Options
}

// ExecStats summarizes how a study's planned jobs were satisfied.
type ExecStats struct {
	// Planned is the number of jobs the plan enumerated.
	Planned int `json:"planned"`
	// Executed is how many measurements actually ran a world — including
	// degradation-ladder sub-windows, which are planned on demand, so
	// under degradation Executed may exceed Planned-CacheHits.
	Executed int `json:"executed"`
	// CacheHits is how many jobs the cache served without running a world.
	CacheHits int `json:"cache_hits"`
}

// ErrCacheMiss marks a RunFromCache failure caused by a job the cache
// cannot serve — as opposed to a planning or analysis error. Serving
// layers branch on it: a miss can be answered by measuring on demand,
// a malformed study cannot.
var ErrCacheMiss = errors.New("cache has no result")

// Backoff limits for measurement retries: the shift cap keeps the
// doubling from overflowing time.Duration for large attempt counts, and
// the absolute ceiling bounds any single sleep regardless of the
// configured base.
const (
	maxBackoffShift = 10
	maxRetryBackoff = 30 * time.Second
)

// retryDelay returns the backoff before retrying attempt (0-based):
// base<<attempt, with the shift capped and the result clamped to
// [0, maxRetryBackoff]. A left shift of a duration can overflow to a
// negative value; any such result also clamps to the ceiling.
func retryDelay(base time.Duration, attempt int) time.Duration {
	shift := attempt
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	d := base << shift
	if d > maxRetryBackoff || d < base {
		return maxRetryBackoff
	}
	return d
}

// planInputs builds the plan parameters for a workload under the
// (defaulted) options. The rank count is part of each job's identity —
// the same benchmark at a different rank count is a different
// measurement; rankless synthetic workloads contribute zero.
func planInputs(w Workload, trips int, chainLens []int, o Options) plan.Inputs {
	procs := 0
	if r, ok := w.(interface{ RankCount() int }); ok {
		procs = r.RankCount()
	}
	return plan.Inputs{
		Workload:    w.Name(),
		Procs:       procs,
		Trips:       trips,
		ChainLens:   chainLens,
		Blocks:      o.Blocks,
		Passes:      o.Passes,
		TrimFrac:    o.TrimFrac,
		ActualRuns:  o.ActualRuns,
		WorldDigest: o.WorldDigest,
		FaultDigest: o.FaultDigest,
	}
}

// appFor builds and validates the application structure.
func appFor(w Workload, trips int) (core.App, error) {
	pre, loop, post := w.Kernels()
	app := core.App{Name: w.Name(), Pre: pre, Loop: core.Ring(loop), Post: post, Trips: trips}
	return app, app.Validate()
}

// Plan enumerates the study's measurement jobs without running anything.
func (e Engine) Plan(trips int, chainLens []int) ([]plan.Job, error) {
	o := e.Opts.withDefaults()
	app, err := appFor(e.Workload, trips)
	if err != nil {
		return nil, err
	}
	return plan.StudyJobs(app, planInputs(e.Workload, trips, chainLens, o))
}

// record converts a job result into the study's provenance form.
func record(j plan.Job, res plan.Result, cached bool) MeasurementRecord {
	return MeasurementRecord{
		Key:      j.Label(),
		Kind:     string(j.Kind),
		Seconds:  res.Seconds,
		Raw:      res.Raw,
		TrimFrac: res.TrimFrac,
		Cached:   cached,
	}
}

// measurer runs single jobs against the workload with the options' retry
// budget and observability. Its methods are called concurrently by the
// executor's workers; the sinks it writes to (Options.Metrics, the
// context's trace) are concurrency-safe, and all per-job state lives in
// the caller's index-aligned slots.
type measurer struct {
	w Workload
	o Options
}

// measure runs one job under the retry budget: each failed attempt is
// recorded and retried after a capped exponential backoff until the
// budget is spent.
func (r *measurer) measure(ctx context.Context, j plan.Job) (plan.Result, []RetryRecord, error) {
	var retries []RetryRecord
	for attempt := 0; ; attempt++ {
		res, err := r.measureOnce(ctx, j)
		if err == nil {
			return res, retries, nil
		}
		if attempt >= r.o.MaxRetries {
			return plan.Result{}, retries, err
		}
		if r.o.RetryGate != nil && !r.o.RetryGate() {
			// The retry budget is spent: surface the failure now rather
			// than amplify whatever is already failing.
			if r.o.Metrics != nil {
				r.o.Metrics.Counter("harness.retry.denied").Inc()
			}
			return plan.Result{}, retries, err
		}
		retries = append(retries, RetryRecord{Key: j.Label(), Kind: string(j.Kind), Attempt: attempt + 1, Err: err.Error()})
		if r.o.Metrics != nil {
			r.o.Metrics.Counter("harness.retry.count").Inc()
		}
		r.o.sleep(retryDelay(r.o.RetryBackoff, attempt))
	}
}

// measureOnce performs one measurement attempt with full observability —
// the one place a "measure.<kind>" span is recorded, under whatever span
// ctx carries (a request's or a campaign's "execute", or "assemble" for
// degradation-ladder sub-windows). A failed attempt keeps its span,
// marked "<label> failed", and bumps a ".failed" counter: without those,
// traces of degraded runs have holes where the failed attempts' wall
// time went.
func (r *measurer) measureOnce(ctx context.Context, j plan.Job) (plan.Result, error) {
	o := r.o
	sp, _ := obs.StartSpan(ctx, "measure."+string(j.Kind), j.Label())
	defer sp.End()
	var res plan.Result
	var err error
	if j.Kind == plan.KindActual {
		var v float64
		v, err = r.w.MeasureActual(j.Spec.Trips, o)
		res = plan.Result{Seconds: v}
	} else {
		var wm npb.WindowMeasurement
		if d, ok := r.w.(WindowDetailer); ok {
			wm, err = d.MeasureWindowDetail(j.Spec.Window, o)
		} else {
			var v float64
			v, err = r.w.MeasureWindow(j.Spec.Window, o)
			wm = npb.WindowMeasurement{Window: j.Spec.Window, PerPass: v, TrimFrac: o.TrimFrac, Passes: o.Passes}
		}
		res = plan.Result{Seconds: wm.PerPass, Raw: wm.Blocks, TrimFrac: wm.TrimFrac, Passes: wm.Passes}
	}
	if err != nil {
		sp.SetDetail(j.Label() + " failed")
		if o.Metrics != nil {
			o.Metrics.Counter("harness.measure." + string(j.Kind) + ".failed").Inc()
		}
		return plan.Result{}, err
	}
	if o.Metrics != nil {
		o.Metrics.Counter("harness.measure." + string(j.Kind) + ".count").Inc()
		if j.Kind != plan.KindActual {
			o.Metrics.Counter("harness.blocks.timed").Add(int64(len(res.Raw)))
			o.Metrics.Histogram("harness.measure.per_pass_ns").Observe(int64(res.Seconds * 1e9))
		}
	}
	return res, nil
}

// Run measures the workload and produces predictions for every chain
// length in chainLens, plus the summation baseline — the full
// plan → execute → analyze pipeline. With Options.Parallel == 1 (the
// default) execution is strictly sequential in plan order and the result
// is identical to the historical serial pipeline.
func (e Engine) Run(trips int, chainLens []int) (*Study, error) {
	return e.RunCtx(context.Background(), trips, chainLens)
}

// RunCtx is Run with trace attribution: when ctx carries an obs span — a
// request's (serve) or a campaign trace's (couple -trace-out) — the
// pipeline's stages land under it: "plan", "execute" (with one
// "measure.<kind>" child per attempt that runs a world, opened
// concurrently by executor workers), "assemble" and "analyze" — so an
// on-demand measurement or a campaign can show where its wall time went.
// With no span in ctx the only cost is one nil check per stage.
func (e Engine) RunCtx(ctx context.Context, trips int, chainLens []int) (*Study, error) {
	o := e.Opts.withDefaults()
	w := e.Workload
	planSpan, _ := obs.StartSpan(ctx, "plan", w.Name())
	app, err := appFor(w, trips)
	if err != nil {
		planSpan.End()
		return nil, err
	}
	in := planInputs(w, trips, chainLens, o)
	jobs, err := plan.StudyJobs(app, in)
	planSpan.End()
	if err != nil {
		return nil, err
	}
	cache := o.Cache
	if cache == nil {
		// In-memory dedup is always on; without a caller-provided cache
		// it is private to this study.
		cache = plan.NewCache()
	}

	run := &measurer{w: w, o: o}
	attempts := make([][]RetryRecord, len(jobs))
	// A failed cache persist never fails the study — the measurement is
	// done — but it must be visible: a counter for dashboards and one
	// stderr warning per run so a read-only or full cache directory does
	// not masquerade as a mystery cold cache.
	var persistWarn sync.Once
	onCacheError := func(j plan.Job, err error) {
		if o.Metrics != nil {
			o.Metrics.Counter("harness.cache.put_error").Inc()
		}
		persistWarn.Do(func() {
			fmt.Fprintf(os.Stderr, "harness: cache persist failed (measurements stay in memory; further persist errors suppressed): %v\n", err)
		})
	}
	execSpan, execCtx := obs.StartSpan(ctx, "execute", fmt.Sprintf("jobs=%d parallel=%d", len(jobs), o.Parallel))
	ex := plan.Executor{
		Parallel: o.Parallel,
		Cache:    cache,
		Fatal: func(j plan.Job) bool {
			// Window failures degrade when asked to; everything else is
			// fatal — without isolated or actual times there is nothing
			// to predict or compare against.
			return j.Kind != plan.KindWindow || !o.Degrade
		},
		OnCacheError: onCacheError,
		Ctx:          execCtx,
	}
	outcomes := ex.Run(jobs, func(i int, j plan.Job) (plan.Result, error) {
		res, retries, err := run.measure(execCtx, j)
		attempts[i] = retries
		return res, err
	})
	execSpan.End()

	// Assembly runs on one goroutine in plan order, so provenance, health
	// and the measurement maps are deterministic regardless of the worker
	// count (and byte-identical to the serial pipeline at Parallel == 1).
	assembleSpan, assembleCtx := obs.StartSpan(ctx, "assemble", "")
	m := core.NewMeasurements()
	var provenance []MeasurementRecord
	var health StudyHealth
	measured := make(map[string][]string)
	failed := make(map[string]bool)
	execStats := ExecStats{Planned: len(jobs)}
	actuals := make([]float64, 0, o.ActualRuns)
	actualAllCached := true

	recordFailure := func(key string, err error) {
		failed[key] = true
		health.FailedWindows = append(health.FailedWindows, WindowFailure{Key: key, Err: err.Error()})
		if o.Metrics != nil {
			o.Metrics.Counter("harness.window.failed").Inc()
		}
	}
	// ladder measures the contiguous sub-windows of a lost window so
	// shorter-chain couplings can stand in for it. It runs serially
	// during assembly, routing each sub-window through the same cached,
	// retried measurement path as planned jobs.
	var ladder func(win []string)
	ladder = func(win []string) {
		subLen := len(win) - 1
		if subLen < 2 {
			return
		}
		for i := 0; i+subLen <= len(win); i++ {
			sub := win[i : i+subLen]
			key := core.Key(sub)
			if _, done := m.Window[key]; done {
				continue
			}
			if failed[key] {
				continue
			}
			j := plan.WindowJob(in, sub)
			res, cached := cache.Get(j)
			if !cached {
				var retries []RetryRecord
				var err error
				res, retries, err = run.measure(assembleCtx, j)
				health.Retries = append(health.Retries, retries...)
				if err != nil {
					recordFailure(key, err)
					ladder(sub)
					continue
				}
				if err := cache.Put(j, res); err != nil {
					onCacheError(j, err)
				}
				execStats.Executed++
			} else {
				execStats.CacheHits++
			}
			m.Window[key] = res.Seconds
			measured[key] = append([]string(nil), sub...)
			provenance = append(provenance, record(j, res, cached))
		}
	}

	for i, j := range jobs {
		out := outcomes[i]
		health.Retries = append(health.Retries, attempts[i]...)
		if errors.Is(out.Err, plan.ErrSkipped) {
			continue
		}
		if out.Cached {
			execStats.CacheHits++
		} else if out.Err == nil {
			execStats.Executed++
		}
		switch j.Kind {
		case plan.KindIsolated:
			if out.Err != nil {
				return nil, fmt.Errorf("harness: isolated %s: %w", j.Label(), out.Err)
			}
			m.Isolated[j.Label()] = out.Result.Seconds
			provenance = append(provenance, record(j, out.Result, out.Cached))
		case plan.KindWindow:
			key := j.Label()
			if out.Err != nil {
				if !o.Degrade {
					return nil, fmt.Errorf("harness: window %s: %w", key, out.Err)
				}
				recordFailure(key, out.Err)
				ladder(j.Spec.Window)
				continue
			}
			m.Window[key] = out.Result.Seconds
			measured[key] = append([]string(nil), j.Spec.Window...)
			provenance = append(provenance, record(j, out.Result, out.Cached))
		case plan.KindActual:
			if out.Err != nil {
				return nil, fmt.Errorf("harness: actual run: %w", out.Err)
			}
			actuals = append(actuals, out.Result.Seconds)
			if !out.Cached {
				actualAllCached = false
			}
		}
	}
	if o.Metrics != nil {
		if execStats.CacheHits > 0 {
			o.Metrics.Counter("harness.cache.hit").Add(int64(execStats.CacheHits))
		}
		if execStats.Executed > 0 {
			o.Metrics.Counter("harness.cache.miss").Add(int64(execStats.Executed))
		}
	}

	actual := stats.Median(actuals)
	provenance = append(provenance, MeasurementRecord{
		Key:     w.Name(),
		Kind:    KindActual,
		Seconds: actual,
		Raw:     actuals,
		Cached:  actualAllCached,
	})
	assembleSpan.End()

	analyzeSpan, _ := obs.StartSpan(ctx, "analyze", "")
	an, err := Analyze(app, m, actual, chainLens, measured, o.Degrade)
	analyzeSpan.End()
	if err != nil {
		return nil, err
	}
	health.Degraded = an.Degraded
	if o.Metrics != nil && len(an.Degraded) > 0 {
		o.Metrics.Counter("harness.coefficient.degraded").Add(int64(len(an.Degraded)))
	}
	return &Study{
		Workload:     w.Name(),
		Trips:        trips,
		App:          app,
		Measurements: m,
		Actual:       actual,
		Summation:    an.Summation,
		Couplings:    an.Couplings,
		Details:      an.Details,
		Provenance:   provenance,
		Health:       health,
		Exec:         execStats,
	}, nil
}

// RunFromCache rebuilds a study purely from cached measurements: it plans
// the campaign, requires every job to be served by Options.Cache, and
// runs the pure analysis layer. No world is spawned — this is the
// re-analysis path behind couple -from-cache.
func (e Engine) RunFromCache(trips int, chainLens []int) (*Study, error) {
	return e.RunFromCacheCtx(context.Background(), trips, chainLens)
}

// RunFromCacheCtx is RunFromCache with request-trace attribution: the
// serving layer's warm path. The analysed study is memoised on the cache
// itself (plan.Cache.Derive) under studyKey, so only the first call for a
// configuration plans, loads and analyses; every later one is a key
// render and one lookup, until a measurement the cache holds changes.
//
// The returned study is shared: every caller with the same configuration
// gets the same *Study, concurrently, for as long as it stays valid.
// Treat it as immutable — copy whatever you need to change.
//
// When ctx carries an obs span the call records one child, "cache.memo",
// detail "hit" or "miss". Under a miss sit the stages of the build —
// "plan", "cache.load" (whose own children are the individual disk
// reads, if any; memory hits stay unlisted) and "analyze" — which
// together must account for its wall time. With no span in ctx the cost
// is one nil check per stage.
func (e Engine) RunFromCacheCtx(ctx context.Context, trips int, chainLens []int) (*Study, error) {
	o := e.Opts.withDefaults()
	if o.Cache == nil {
		return nil, errors.New("harness: a from-cache run needs Options.Cache")
	}
	in := planInputs(e.Workload, trips, chainLens, o)
	sp, mctx := obs.StartSpan(ctx, "cache.memo", "hit")
	v, err := o.Cache.Derive(studyKey(e.Workload, in), func() (any, error) {
		sp.SetDetail("miss")
		return loadStudy(mctx, e.Workload, in, o.Cache)
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	st := v.(*Study)
	countCacheHits(o, st)
	return st, nil
}

// FromMemo returns the study RunFromCacheCtx would return if the cache's
// memo holds it now, and false if it does not. It looks the study up
// under the same studyKey and does nothing else — no plan, no job read,
// no analysis — so it never reads disk or waits. A hit counts
// harness.cache.hit as RunFromCacheCtx does.
//
//kcvet:hotpath a memoised answer is looked up here on the request's own goroutine
func (e Engine) FromMemo(trips int, chainLens []int) (*Study, bool) {
	o := e.Opts.withDefaults()
	if o.Cache == nil {
		return nil, false
	}
	v, ok := o.Cache.Peek(studyKey(e.Workload, planInputs(e.Workload, trips, chainLens, o)))
	if !ok {
		return nil, false
	}
	st := v.(*Study)
	countCacheHits(o, st)
	return st, true
}

// countCacheHits counts a from-cache study's jobs as cache hits. Every
// served job is one by construction, memoised or not; the counter keeps
// long-running query services' hit rates observable.
func countCacheHits(o Options, st *Study) {
	if o.Metrics != nil && st.Exec.Planned > 0 {
		o.Metrics.Counter("harness.cache.hit").Add(int64(st.Exec.Planned))
	}
}

// studyKey renders the identity of a from-cache study for the memo:
// everything plan.StudyJobs and Analyze consume — the kernel lists and
// every plan.Inputs field — and therefore everything loadStudy's result
// depends on besides the cache entries themselves. Strings are written
// length-first so no choice of kernel or workload names can make two
// configurations render alike.
func studyKey(w Workload, in plan.Inputs) string {
	pre, loop, post := w.Kernels()
	b := make([]byte, 0, 256)
	str := func(s string) {
		b = strconv.AppendInt(b, int64(len(s)), 10)
		b = append(b, ':')
		b = append(b, s...)
	}
	num := func(n int) {
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, ' ')
	}
	str(in.Workload)
	str(in.WorldDigest)
	str(in.FaultDigest)
	num(in.Procs)
	num(in.Trips)
	num(in.Blocks)
	num(in.Passes)
	num(in.ActualRuns)
	b = strconv.AppendFloat(b, in.TrimFrac, 'g', -1, 64)
	b = append(b, ' ')
	num(len(in.ChainLens))
	for _, l := range in.ChainLens {
		num(l)
	}
	for _, group := range [3][]string{pre, loop, post} {
		num(len(group))
		for _, k := range group {
			str(k)
		}
	}
	return string(b)
}

// loadStudy is the memo's build: plan the campaign, take every job from
// the cache — failing with ErrCacheMiss on the first one it does not
// hold — and analyse. Its result is a function of its arguments and the
// entries read, which is what lets RunFromCacheCtx keep it.
//
//kcvet:hotpath every first question a restarted server or couple -from-cache answers is built here
func loadStudy(ctx context.Context, w Workload, in plan.Inputs, cache *plan.Cache) (*Study, error) {
	planSpan, _ := obs.StartSpan(ctx, "plan", w.Name())
	app, err := appFor(w, in.Trips)
	if err != nil {
		planSpan.End()
		return nil, err
	}
	jobs, err := plan.StudyJobs(app, in)
	planSpan.End()
	if err != nil {
		return nil, err
	}
	traced := obs.TraceFrom(ctx) != nil
	detail := ""
	if traced {
		detail = "jobs=" + strconv.Itoa(len(jobs))
	}
	loadSpan, loadCtx := obs.StartSpan(ctx, "cache.load", detail)
	// Everything below is sized from the plan, so nothing grows.
	var isolated, windows, runs int
	for i := range jobs {
		switch jobs[i].Kind {
		case plan.KindIsolated:
			isolated++
		case plan.KindWindow:
			windows++
		case plan.KindActual:
			runs++
		}
	}
	m := core.Measurements{Isolated: make(map[string]float64, isolated), Window: make(map[string]float64, windows)}
	provenance := make([]MeasurementRecord, isolated+windows+1)
	actuals := make([]float64, runs)
	var missing *plan.Job
	recs, run := 0, 0
	for i := range jobs {
		j := &jobs[i]
		res, ok := cache.GetCtx(loadCtx, *j)
		if !ok {
			missing = j
			break
		}
		switch j.Kind {
		case plan.KindIsolated:
			m.Isolated[j.Label()] = res.Seconds
			provenance[recs] = record(*j, res, true)
			recs++
		case plan.KindWindow:
			m.Window[j.Label()] = res.Seconds
			provenance[recs] = record(*j, res, true)
			recs++
		case plan.KindActual:
			actuals[run] = res.Seconds
			run++
		}
	}
	if missing != nil {
		if traced {
			loadSpan.SetDetail(detail + " missing=" + missing.Key())
		}
		loadSpan.End()
		return nil, &missError{*missing}
	}
	loadSpan.End()
	actual := stats.Median(actuals)
	provenance[recs] = MeasurementRecord{
		Key:     w.Name(),
		Kind:    KindActual,
		Seconds: actual,
		Raw:     actuals,
		Cached:  true,
	}
	analyzeSpan, _ := obs.StartSpan(ctx, "analyze", "")
	an, err := Analyze(app, m, actual, in.ChainLens, nil, false)
	analyzeSpan.End()
	if err != nil {
		return nil, err
	}
	return &Study{
		Workload:     w.Name(),
		Trips:        in.Trips,
		App:          app,
		Measurements: m,
		Actual:       actual,
		Summation:    an.Summation,
		Couplings:    an.Couplings,
		Details:      an.Details,
		Provenance:   provenance,
		Exec:         ExecStats{Planned: len(jobs), CacheHits: len(jobs)},
	}, nil
}

// missError is loadStudy's failure for a job the cache does not hold. It
// is rendered when it is read, not when the study fails.
type missError struct{ job plan.Job }

func (e *missError) Error() string {
	return fmt.Sprintf("harness: %v for %s %s (key %s); run the study against this cache first", ErrCacheMiss, e.job.Kind, e.job.Label(), e.job.Key())
}

func (e *missError) Unwrap() error { return ErrCacheMiss }
