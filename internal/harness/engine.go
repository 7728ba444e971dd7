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
// options' resolved protocol. The rank count is part of each job's identity —
// the same benchmark at a different rank count is a different
// measurement; rankless synthetic workloads contribute zero.
func planInputs(w Workload, trips int, chainLens []int, o Options) plan.Inputs {
	procs := 0
	if r, ok := w.(interface{ RankCount() int }); ok {
		procs = r.RankCount()
	}
	p := o.Protocol()
	return plan.Inputs{
		Workload:    w.Name(),
		Procs:       procs,
		Trips:       trips,
		ChainLens:   chainLens,
		Blocks:      p.Blocks,
		Passes:      p.Passes,
		TrimFrac:    p.Trim,
		ActualRuns:  p.ActualRuns,
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
	app, err := appFor(e.Workload, trips)
	if err != nil {
		return nil, err
	}
	return plan.StudyJobs(app, planInputs(e.Workload, trips, chainLens, e.Opts))
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

// newMeasurer returns the measurer of w under o, its retry backoff
// resolved: 50ms unless o sets one, slept with time.Sleep unless a test
// replaced it.
func newMeasurer(w Workload, o Options) *measurer {
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.sleep == nil {
		o.sleep = time.Sleep
	}
	return &measurer{w: w, o: o}
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
	} else if d, ok := r.w.(WindowDetailer); ok {
		res, err = d.MeasureWindowDetail(j.Spec.Window, o)
	} else {
		var v float64
		v, err = r.w.MeasureWindow(j.Spec.Window, o)
		res = plan.Result{Seconds: v, TrimFrac: o.TrimFrac, Passes: o.Protocol().Passes}
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
	o := e.Opts
	parallel := max(o.Parallel, 1)
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

	run := newMeasurer(w, o)
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
	execSpan, execCtx := obs.StartSpan(ctx, "execute", fmt.Sprintf("jobs=%d parallel=%d", len(jobs), parallel))
	ex := plan.Executor{
		Parallel: parallel,
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

	// Settling and assembly run on one goroutine in plan order, so
	// provenance, health and the measurement maps are deterministic
	// regardless of the worker count (and byte-identical to the serial
	// pipeline at Parallel == 1). Settling resolves every failure first: a
	// fatal one fails the study, jobs skipped after it are dropped, and
	// under Degrade a lost window is replaced, in its place, by the
	// sub-windows of its degradation ladder.
	assembleSpan, assembleCtx := obs.StartSpan(ctx, "assemble", "")
	var health StudyHealth
	kept := make([]plan.Job, 0, len(jobs))
	keptOut := make([]plan.Outcome, 0, len(jobs))
	settled := make(map[string]bool) // window keys measured (true) or lost (false)
	lose := func(key string, err error) {
		settled[key] = false
		health.FailedWindows = append(health.FailedWindows, WindowFailure{Key: key, Err: err.Error()})
		if o.Metrics != nil {
			o.Metrics.Counter("harness.window.failed").Inc()
		}
	}
	// ladder measures the contiguous sub-windows of a lost window, serially,
	// through the same cached, retried measurement path as planned jobs, so
	// shorter-chain couplings can stand in for it.
	var ladder func(win []string)
	ladder = func(win []string) {
		subLen := len(win) - 1
		if subLen < 2 {
			return
		}
		for i := 0; i+subLen <= len(win); i++ {
			j := plan.WindowJob(in, win[i:i+subLen])
			if _, done := settled[j.Label()]; done {
				continue
			}
			var out plan.Outcome
			out.Result, out.Cached = cache.Get(j)
			if !out.Cached {
				var retries []RetryRecord
				out.Result, retries, out.Err = run.measure(assembleCtx, j)
				health.Retries = append(health.Retries, retries...)
				if out.Err != nil {
					lose(j.Label(), out.Err)
					ladder(j.Spec.Window)
					continue
				}
				if err := cache.Put(j, out.Result); err != nil {
					onCacheError(j, err)
				}
			}
			settled[j.Label()] = true
			kept, keptOut = append(kept, j), append(keptOut, out)
		}
	}
	for i, j := range jobs {
		out := outcomes[i]
		health.Retries = append(health.Retries, attempts[i]...)
		switch {
		case errors.Is(out.Err, plan.ErrSkipped):
			// Skipped after a fatal failure, which this walk meets too.
		case out.Err == nil:
			if j.Kind == plan.KindWindow {
				settled[j.Label()] = true
			}
			kept, keptOut = append(kept, j), append(keptOut, out)
		case j.Kind == plan.KindIsolated:
			err = fmt.Errorf("harness: isolated %s: %w", j.Label(), out.Err)
		case j.Kind == plan.KindActual:
			err = fmt.Errorf("harness: actual run: %w", out.Err)
		case !o.Degrade:
			err = fmt.Errorf("harness: window %s: %w", j.Label(), out.Err)
		default:
			lose(j.Label(), out.Err)
			ladder(j.Spec.Window)
		}
		if err != nil {
			assembleSpan.End()
			return nil, err
		}
	}
	st, err := assemble(ctx, assembleSpan, app, in, len(jobs), kept, func(i int) (plan.Result, bool, error) {
		return keptOut[i].Result, keptOut[i].Cached, nil
	}, o.Degrade, health)
	if err != nil {
		return nil, err
	}
	if o.Metrics != nil {
		if st.Exec.CacheHits > 0 {
			o.Metrics.Counter("harness.cache.hit").Add(int64(st.Exec.CacheHits))
		}
		if st.Exec.Executed > 0 {
			o.Metrics.Counter("harness.cache.miss").Add(int64(st.Exec.Executed))
		}
		if len(st.Health.Degraded) > 0 {
			o.Metrics.Counter("harness.coefficient.degraded").Add(int64(len(st.Health.Degraded)))
		}
	}
	return st, nil
}

// assemble is the one walk from a study's job results to its Study: jobs
// in plan order, none failed, the i-th one's result and whether the cache
// served it read by get. It fills the measurements and the provenance —
// the actual runs' median record last — counts the executions, and runs
// Analyze. RunCtx feeds it settled executor outcomes, loadStudy cache
// reads; an error from get ends the walk and the study. stage is the span
// the walk runs under; it ends before "analyze" opens.
//
//kcvet:hotpath every first question a restarted server or couple -from-cache answers is assembled here
func assemble(ctx context.Context, stage obs.SpanRef, app core.App, in plan.Inputs, planned int, jobs []plan.Job,
	get func(i int) (plan.Result, bool, error), degrade bool, health StudyHealth) (*Study, error) {
	// Everything below is sized from the jobs, so nothing grows.
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
	// Only the degradation ladder's fallback reads which kernels a window
	// key holds.
	var measured map[string][]string
	if degrade {
		measured = make(map[string][]string, windows)
	}
	exec := ExecStats{Planned: planned}
	actualCached := true
	recs, run := 0, 0
	for i := range jobs {
		j := &jobs[i]
		res, cached, err := get(i)
		if err != nil {
			stage.End()
			return nil, err
		}
		if cached {
			exec.CacheHits++
		} else {
			exec.Executed++
		}
		switch j.Kind {
		case plan.KindIsolated:
			m.Isolated[j.Label()] = res.Seconds
		case plan.KindWindow:
			m.Window[j.Label()] = res.Seconds
			if degrade {
				measured[j.Label()] = j.Spec.Window
			}
		case plan.KindActual:
			actuals[run] = res.Seconds
			run++
			actualCached = actualCached && cached
			continue
		}
		provenance[recs] = MeasurementRecord{Key: j.Label(), Kind: string(j.Kind), Result: res, Cached: cached}
		recs++
	}
	stage.End()
	actual := stats.Median(actuals)
	provenance[recs] = MeasurementRecord{Key: app.Name, Kind: KindActual, Result: plan.Result{Seconds: actual, Raw: actuals}, Cached: actualCached}
	analyzeSpan, _ := obs.StartSpan(ctx, "analyze", "")
	an, err := Analyze(app, m, actual, in.ChainLens, measured, degrade)
	analyzeSpan.End()
	if err != nil {
		return nil, err
	}
	health.Degraded = an.Degraded
	return &Study{
		Workload:     app.Name,
		Trips:        in.Trips,
		App:          app,
		Measurements: m,
		Actual:       actual,
		Summation:    an.Summation,
		Couplings:    an.Couplings,
		Details:      an.Details,
		Provenance:   provenance,
		Health:       health,
		Exec:         exec,
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
	if e.Opts.Cache == nil {
		return nil, errors.New("harness: a from-cache run needs Options.Cache")
	}
	in := planInputs(e.Workload, trips, chainLens, e.Opts)
	sp, mctx := obs.StartSpan(ctx, "cache.memo", "hit")
	v, err := e.Opts.Cache.Derive(studyKey(e.Workload, in), func() (any, error) {
		sp.SetDetail("miss")
		return loadStudy(mctx, e.Workload, in, e.Opts.Cache)
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	st := v.(*Study)
	countCacheHits(e.Opts, st)
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
	if e.Opts.Cache == nil {
		return nil, false
	}
	v, ok := e.Opts.Cache.Peek(studyKey(e.Workload, planInputs(e.Workload, trips, chainLens, e.Opts)))
	if !ok {
		return nil, false
	}
	st := v.(*Study)
	countCacheHits(e.Opts, st)
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

// loadStudy is the memo's build: plan the campaign and assemble it from
// cache reads — failing with ErrCacheMiss on the first job the cache does
// not hold. Its result is a function of its arguments and the
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
	return assemble(ctx, loadSpan, app, in, len(jobs), jobs, func(i int) (plan.Result, bool, error) {
		res, ok := cache.GetCtx(loadCtx, jobs[i])
		if !ok {
			if traced {
				loadSpan.SetDetail(detail + " missing=" + jobs[i].Key())
			}
			return res, false, &missError{jobs[i]}
		}
		return res, true, nil
	}, false, StudyHealth{})
}

// missError is loadStudy's failure for a job the cache does not hold. It
// is rendered when it is read, not when the study fails.
type missError struct{ job plan.Job }

func (e *missError) Error() string {
	return fmt.Sprintf("harness: %v for %s %s (key %s); run the study against this cache first", ErrCacheMiss, e.job.Kind, e.job.Label(), e.job.Key())
}

func (e *missError) Unwrap() error { return ErrCacheMiss }
