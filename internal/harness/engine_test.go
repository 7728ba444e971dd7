package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
)

func TestRetryDelayCapsBackoff(t *testing.T) {
	base := 50 * time.Millisecond
	// Small attempts keep the plain doubling.
	for attempt, want := range []time.Duration{base, 2 * base, 4 * base, 8 * base} {
		if got := retryDelay(base, attempt); got != want {
			t.Errorf("retryDelay(%v, %d) = %v, want %v", base, attempt, got, want)
		}
	}
	// Large attempts clamp to the ceiling instead of overflowing: a
	// duration shifted by 63+ flips sign, which used to make o.sleep
	// return immediately (hot retry loop) or explode.
	for _, attempt := range []int{10, 20, 40, 63, 64, 1000} {
		got := retryDelay(base, attempt)
		if got < 0 {
			t.Fatalf("retryDelay(%v, %d) = %v overflowed", base, attempt, got)
		}
		if got > maxRetryBackoff {
			t.Errorf("retryDelay(%v, %d) = %v exceeds ceiling %v", base, attempt, got, maxRetryBackoff)
		}
	}
	if got := retryDelay(time.Hour, 1); got != maxRetryBackoff {
		t.Errorf("huge base not clamped: %v", got)
	}
}

// TestParallelMatchesSerial: the whole point of the deterministic
// assembly pass — at any worker count the study's measurements,
// predictions, provenance and health are identical to the serial run on
// a noise-free workload.
func TestParallelMatchesSerial(t *testing.T) {
	serial, err := RunStudy(fourKernelSynthetic(), 10, []int{2, 3, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 16} {
		par, err := RunStudy(fourKernelSynthetic(), 10, []int{2, 3, 4}, Options{Parallel: n})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("Parallel=%d study differs from serial", n)
		}
	}
}

func TestFailedMeasurementRecordsSpanAndCounter(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTrace(nil)
	f := &flakyWorkload{
		Synthetic: fourKernelSynthetic(),
		transient: map[string]int{"A": 1},
	}
	_, err := Engine{Workload: f, Opts: Options{
		MaxRetries: 2,
		Metrics:    reg,
		sleep:      func(time.Duration) {},
	}}.RunCtx(obs.ContextWithTrace(t.Context(), tr), 10, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("harness.measure.isolated.failed").Value(); got != 1 {
		t.Errorf("failed counter = %d, want 1", got)
	}
	var failedSpans, retried int
	for _, s := range tr.Spans() {
		if s.Name != "measure.isolated" {
			continue
		}
		switch s.Detail {
		case "A failed":
			failedSpans++
		case "A":
			retried++
		}
	}
	if failedSpans != 1 || retried != 1 {
		t.Errorf("spans for A: %d failed, %d succeeded, want 1 and 1 (failures must not leave trace holes)", failedSpans, retried)
	}
}

// TestSharedCacheReusesMeasurements: a second study against the same
// cache re-executes nothing and reproduces the first study's numbers.
func TestSharedCacheReusesMeasurements(t *testing.T) {
	cache := plan.NewCache()
	opts := Options{Cache: cache}
	first, err := RunStudy(fourKernelSynthetic(), 10, []int{2, 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Exec.CacheHits != 0 || first.Exec.Executed != first.Exec.Planned {
		t.Fatalf("first run exec = %+v", first.Exec)
	}
	second, err := RunStudy(fourKernelSynthetic(), 10, []int{2, 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Exec.Executed != 0 || second.Exec.CacheHits != second.Exec.Planned {
		t.Fatalf("second run exec = %+v, want all hits", second.Exec)
	}
	if second.Actual != first.Actual || !reflect.DeepEqual(second.Couplings, first.Couplings) {
		t.Error("cached study differs from the measured one")
	}
	for _, rec := range second.Provenance {
		if !rec.Cached {
			t.Errorf("record %s/%s not marked cached", rec.Kind, rec.Key)
		}
	}
	// A narrower study (subset chain) is served from the same cache too.
	sub, err := RunStudy(fourKernelSynthetic(), 10, []int{2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Exec.Executed != 0 {
		t.Errorf("subset study re-executed %d jobs", sub.Exec.Executed)
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	cache := plan.NewCache()
	reg := obs.NewRegistry()
	opts := Options{Cache: cache, Metrics: reg}
	if _, err := RunStudy(fourKernelSynthetic(), 10, []int{2}, opts); err != nil {
		t.Fatal(err)
	}
	misses := reg.Counter("harness.cache.miss").Value()
	if misses == 0 {
		t.Fatal("first run recorded no misses")
	}
	if got := reg.Counter("harness.cache.hit").Value(); got != 0 {
		t.Fatalf("first run recorded %d hits", got)
	}
	if _, err := RunStudy(fourKernelSynthetic(), 10, []int{2}, opts); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("harness.cache.hit").Value(); got != misses {
		t.Errorf("second run hits = %d, want %d", got, misses)
	}
}

// TestCachePutErrorsAreCountedNotFatal: a cache whose log cannot be
// appended to (full disk, read-only mount — here: closed) must show up on
// the harness.cache.put_error counter while the study itself still
// succeeds.
func TestCachePutErrorsAreCountedNotFatal(t *testing.T) {
	cache, err := plan.NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	study, err := RunStudy(fourKernelSynthetic(), 10, []int{2}, Options{Cache: cache, Metrics: reg})
	if err != nil {
		t.Fatalf("persist failures must not fail the study: %v", err)
	}
	if study.Actual <= 0 {
		t.Errorf("actual = %v", study.Actual)
	}
	got := reg.Counter("harness.cache.put_error").Value()
	if got != int64(study.Exec.Executed) {
		t.Errorf("put_error counter = %d, want one per executed job (%d)", got, study.Exec.Executed)
	}
}

// TestFaultDigestKeepsInjectedResultsOutOfCleanCache: same workload, same
// cache, different fault digest — zero sharing in either direction.
func TestFaultDigestKeepsInjectedResultsOutOfCleanCache(t *testing.T) {
	cache := plan.NewCache()
	clean := Options{Cache: cache}
	injected := Options{Cache: cache, FaultDigest: "spec=delay:A:1:0.5:2ms;seed=3"}
	if _, err := RunStudy(fourKernelSynthetic(), 10, []int{2}, clean); err != nil {
		t.Fatal(err)
	}
	st, err := RunStudy(fourKernelSynthetic(), 10, []int{2}, injected)
	if err != nil {
		t.Fatal(err)
	}
	if st.Exec.CacheHits != 0 {
		t.Errorf("injected study hit %d clean cache entries", st.Exec.CacheHits)
	}
	st2, err := RunStudy(fourKernelSynthetic(), 10, []int{2}, clean)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Exec.Executed != 0 {
		t.Errorf("clean study re-executed %d jobs after the injected run", st2.Exec.Executed)
	}
}

// TestRunFromCache: a study rebuilt from the cache is the measured one —
// from the memory tier of the cache that measured it, and from its
// directory reopened by a new cache, where every job is a disk read.
func TestRunFromCache(t *testing.T) {
	dir := t.TempDir()
	cache, err := plan.NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	opts := Options{Cache: cache, ActualRuns: 3}
	measured, err := RunStudy(fourKernelSynthetic(), 10, []int{2, 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := plan.NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	// Every record of the from-cache study is a cached one.
	provenance := append([]MeasurementRecord(nil), measured.Provenance...)
	for i := range provenance {
		provenance[i].Cached = true
	}
	for _, tc := range []struct {
		name  string
		cache *plan.Cache
	}{{"memory", cache}, {"reopened directory", reopened}} {
		t.Run(tc.name, func(t *testing.T) {
			o := opts
			o.Cache = tc.cache
			re, err := Engine{Workload: fourKernelSynthetic(), Opts: o}.RunFromCache(10, []int{2, 4})
			if err != nil {
				t.Fatal(err)
			}
			if re.Actual != measured.Actual {
				t.Errorf("re-analyzed actual %v != %v", re.Actual, measured.Actual)
			}
			if !reflect.DeepEqual(re.Couplings, measured.Couplings) || !reflect.DeepEqual(re.Details, measured.Details) || !reflect.DeepEqual(re.Summation, measured.Summation) {
				t.Error("re-analysis differs from the measured study")
			}
			if !reflect.DeepEqual(re.Measurements, measured.Measurements) || !reflect.DeepEqual(re.Provenance, provenance) {
				t.Errorf("from-cache provenance differs from the measured study's\n got: %+v\nwant: %+v", re.Provenance, provenance)
			}
			if re.Exec.CacheHits != re.Exec.Planned || re.Exec.Executed != 0 {
				t.Errorf("from-cache exec = %+v", re.Exec)
			}
		})
	}
}

func TestRunFromCacheMissingEntryFails(t *testing.T) {
	eng := Engine{Workload: fourKernelSynthetic(), Opts: Options{Cache: plan.NewCache()}}
	_, err := eng.RunFromCache(10, []int{2})
	if err == nil || !strings.Contains(err.Error(), "cache has no result") {
		t.Fatalf("err = %v", err)
	}
	if _, err := (Engine{Workload: fourKernelSynthetic()}).RunFromCache(10, []int{2}); err == nil {
		t.Fatal("nil cache should be rejected")
	}
}

// TestParallelDegradeMatchesSerial: degradation (ladder, health,
// provenance) is assembled deterministically even when the measurements
// ran concurrently.
func TestParallelDegradeMatchesSerial(t *testing.T) {
	mk := func(parallel int) *Study {
		f := &flakyWorkload{
			Synthetic: fourKernelSynthetic(),
			permanent: map[string]bool{"B|C": true},
		}
		st, err := RunStudy(f, 10, []int{2}, Options{
			Degrade:  true,
			Parallel: parallel,
			sleep:    func(time.Duration) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	serial, par := mk(1), mk(8)
	if !reflect.DeepEqual(serial.Couplings, par.Couplings) {
		t.Error("degraded predictions differ under parallel execution")
	}
	if !reflect.DeepEqual(serial.Health.FailedWindows, par.Health.FailedWindows) {
		t.Errorf("failed windows differ: %+v vs %+v", serial.Health.FailedWindows, par.Health.FailedWindows)
	}
	if !reflect.DeepEqual(serial.Measurements, par.Measurements) {
		t.Error("measurements differ under parallel execution")
	}
}

func TestEnginePlan(t *testing.T) {
	jobs, err := Engine{Workload: fourKernelSynthetic()}.Plan(10, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	// 6 isolated (INIT, FINAL, A..D), 4 pair windows, 1 actual.
	if len(jobs) != 11 {
		t.Fatalf("planned %d jobs, want 11", len(jobs))
	}
	if jobs[len(jobs)-1].Kind != plan.KindActual {
		t.Errorf("last job kind %s, want actual", jobs[len(jobs)-1].Kind)
	}
	if _, err := (Engine{Workload: fourKernelSynthetic()}).Plan(10, []int{99}); err == nil {
		t.Error("bad chain length should fail planning")
	}
}

func TestSkippedJobsAfterFatalFailure(t *testing.T) {
	// An isolated failure is fatal; with no retries the study dies with
	// the isolated error, not a later skipped-job error.
	f := &failingWorkload{Synthetic: fourKernelSynthetic(), failKey: "C"}
	_, err := RunStudy(f, 10, []int{2}, Options{Parallel: 4})
	if err == nil || !strings.Contains(err.Error(), "harness: isolated C") {
		t.Fatalf("err = %v", err)
	}
	if errors.Is(err, plan.ErrSkipped) {
		t.Error("study error must be the real failure, not ErrSkipped")
	}
}

// TestMemoisedStudiesMatchAFreshCache is the memo's differential test:
// seeded random histories of everything that can happen to a cache —
// jobs arriving, jobs put again unchanged, jobs replaced — with
// from-cache studies asked for in between. Whatever the history, the
// study RunFromCache answers with must equal, value for value, the one a
// fresh cache holding the same entries produces, and the two must agree
// on when the answer is a miss.
func TestMemoisedStudiesMatchAFreshCache(t *testing.T) {
	w := fourKernelSynthetic()
	configs := []struct {
		trips  int
		chains []int
		opts   Options
	}{
		{10, []int{2}, Options{}},
		{10, []int{2, 3}, Options{}},
		{5, []int{2, 3}, Options{ActualRuns: 3}},
		{10, []int{4}, Options{Blocks: 5, TrimFrac: 0.34}},
	}
	type held struct {
		job plan.Job
		res plan.Result
	}
	memoHits := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cache := plan.NewCache()
		// holds mirrors the cache: key → the job and result last put.
		holds := map[string]held{}
		var keys []string // holds' keys in arrival order, for seeded picks
		put := func(j plan.Job, r plan.Result) {
			if err := cache.Put(j, r); err != nil {
				t.Fatal(err)
			}
			if _, ok := holds[j.Key()]; !ok {
				keys = append(keys, j.Key())
			}
			holds[j.Key()] = held{j, r}
		}
		result := func() plan.Result {
			return plan.Result{Seconds: 0.5 + rng.Float64(), Raw: []float64{rng.Float64(), rng.Float64()}, Passes: 1}
		}
		last := make([]*Study, len(configs))
		for step := 0; step < 400; step++ {
			ci := rng.Intn(len(configs))
			cfg := configs[ci]
			opts := cfg.opts
			opts.Cache = cache
			eng := Engine{Workload: w, Opts: opts}
			switch p := rng.Intn(100); {
			case p < 40: // a job the cache does not hold yet arrives
				jobs, err := eng.Plan(cfg.trips, cfg.chains)
				if err != nil {
					t.Fatal(err)
				}
				for _, j := range jobs {
					if _, ok := holds[j.Key()]; !ok {
						put(j, result())
						break
					}
				}
			case p < 50 && len(keys) > 0: // put again, unchanged
				h := holds[keys[rng.Intn(len(keys))]]
				put(h.job, plan.Result{Seconds: h.res.Seconds, Raw: append([]float64(nil), h.res.Raw...), Passes: h.res.Passes})
			case p < 62 && len(keys) > 0: // replaced by a different measurement
				put(holds[keys[rng.Intn(len(keys))]].job, result())
			default:
				got, gotErr := eng.RunFromCache(cfg.trips, cfg.chains)
				fresh := plan.NewCache()
				for _, k := range keys {
					if err := fresh.Put(holds[k].job, holds[k].res); err != nil {
						t.Fatal(err)
					}
				}
				opts.Cache = fresh
				want, wantErr := Engine{Workload: w, Opts: opts}.RunFromCache(cfg.trips, cfg.chains)
				if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrCacheMiss) != errors.Is(wantErr, ErrCacheMiss) {
					t.Fatalf("seed %d step %d config %d: shared cache answered %v, a fresh one %v", seed, step, ci, gotErr, wantErr)
				}
				if gotErr == nil && !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d config %d: memoised study differs from a fresh cache's\n got: %+v\nwant: %+v", seed, step, ci, got, want)
				}
				if got != nil && got == last[ci] {
					memoHits++
				}
				last[ci] = got
			}
		}
	}
	if memoHits == 0 {
		t.Error("no history ever answered from the memo: the test did not exercise it")
	}
}

// TestRunFromCacheMemoHitKeepsItsSideEffects: answering from the memo
// skips the work, not what an operator watches — the hit counter still
// advances by the study's planned jobs, and a traced call still records
// a span for the lookup. The call that builds keeps its three stage
// spans, under the one that says the memo missed.
func TestRunFromCacheMemoHitKeepsItsSideEffects(t *testing.T) {
	cache := plan.NewCache()
	if _, err := RunStudy(fourKernelSynthetic(), 10, []int{2, 4}, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng := Engine{Workload: fourKernelSynthetic(), Opts: Options{Cache: cache, Metrics: reg}}
	// stages lists a trace's spans as "parent>name detail".
	stages := func(tr *obs.Trace) []string {
		var names []string
		for _, s := range tr.Spans() {
			names = append(names, fmt.Sprintf("%d>%s %s", s.Parent, s.Name, s.Detail))
		}
		return names
	}

	tr := obs.NewTrace(nil)
	built, err := eng.RunFromCacheCtx(obs.ContextWithTrace(context.Background(), tr), 10, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	planned := int64(built.Exec.Planned)
	if got := reg.Counter("harness.cache.hit").Value(); got != planned || planned == 0 {
		t.Fatalf("after the building call harness.cache.hit = %d, want the %d planned jobs", got, planned)
	}
	want := []string{"-1>cache.memo miss", "0>plan toy", fmt.Sprintf("0>cache.load jobs=%d", planned), "0>analyze "}
	if got := stages(tr); !reflect.DeepEqual(got, want) {
		t.Errorf("building call recorded %q, want %q", got, want)
	}

	tr = obs.NewTrace(nil)
	again, err := eng.RunFromCacheCtx(obs.ContextWithTrace(context.Background(), tr), 10, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if again != built {
		t.Error("the second call analysed again instead of returning the memoised study")
	}
	if got := reg.Counter("harness.cache.hit").Value(); got != 2*planned {
		t.Errorf("after the memo hit harness.cache.hit = %d, want %d", got, 2*planned)
	}
	if got := stages(tr); !reflect.DeepEqual(got, []string{"-1>cache.memo hit"}) {
		t.Errorf("memo hit recorded %q, want one cache.memo span", got)
	}
}

// TestFromMemoOnlyReadsTheMemo: the memo-only lookup finds the study
// RunFromCacheCtx memoised and nothing else — not a study whose every job
// the cache holds but nobody has analysed — and counts its hit as
// RunFromCacheCtx does.
func TestFromMemoOnlyReadsTheMemo(t *testing.T) {
	cache := plan.NewCache()
	if _, err := RunStudy(fourKernelSynthetic(), 10, []int{2, 4}, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng := Engine{Workload: fourKernelSynthetic(), Opts: Options{Cache: cache, Metrics: reg}}
	hits := reg.Counter("harness.cache.hit")
	if st, ok := eng.FromMemo(10, []int{2, 4}); ok || st != nil {
		t.Fatalf("FromMemo = %p, %v before any from-cache analysis", st, ok)
	}
	if got := hits.Value(); got != 0 {
		t.Errorf("a memo miss counted %d cache hits", got)
	}
	built, err := eng.RunFromCache(10, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	planned := int64(built.Exec.Planned)
	if st, ok := eng.FromMemo(10, []int{2, 4}); !ok || st != built {
		t.Fatalf("FromMemo = %p, %v; want the memoised study %p", st, ok, built)
	}
	if got := hits.Value(); got != 2*planned {
		t.Errorf("harness.cache.hit = %d after a build and a memo hit, want %d", got, 2*planned)
	}
	if _, ok := eng.FromMemo(10, []int{2}); ok {
		t.Error("FromMemo answered a configuration nobody analysed")
	}
	if _, ok := (Engine{Workload: fourKernelSynthetic()}).FromMemo(10, []int{2, 4}); ok {
		t.Error("FromMemo answered without a cache")
	}
}

// TestStudyKeyCoversEveryInput: the memo key must move with everything
// the memoised study depends on. Every field of plan.Inputs is perturbed
// by reflection, so a field added there and forgotten in studyKey fails
// here; the kernel lists are perturbed by hand, including the
// regroupings and separator-bearing names a plain join would conflate.
func TestStudyKeyCoversEveryInput(t *testing.T) {
	w := fourKernelSynthetic()
	base := plan.Inputs{
		Workload: "toy", Procs: 4, WorldDigest: "grid=8", FaultDigest: "seed=1",
		Trips: 10, ChainLens: []int{2, 3}, Blocks: 3, Passes: 1, TrimFrac: 0.34, ActualRuns: 3,
	}
	ref := studyKey(w, base)
	for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
		in := base
		f := reflect.ValueOf(&in).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.01)
		case reflect.Slice:
			f.Set(reflect.ValueOf([]int{2, 4}))
		default:
			t.Fatalf("plan.Inputs.%s has kind %s: teach this test to perturb it", reflect.TypeOf(base).Field(i).Name, f.Kind())
		}
		if studyKey(w, in) == ref {
			t.Errorf("changing plan.Inputs.%s does not change the study key", reflect.TypeOf(base).Field(i).Name)
		}
	}

	kernels := func(pre, loop, post []string) string {
		return studyKey(&Synthetic{SyntheticName: "toy", Pre: pre, Loop: loop, Post: post}, base)
	}
	keys := map[string]string{}
	for name, k := range map[string]string{
		"base":             kernels([]string{"INIT"}, []string{"A", "B", "C"}, []string{"FINAL"}),
		"loop reordered":   kernels([]string{"INIT"}, []string{"B", "A", "C"}, []string{"FINAL"}),
		"kernel regrouped": kernels([]string{"INIT", "A"}, []string{"B", "C"}, []string{"FINAL"}),
		"post emptied":     kernels([]string{"INIT"}, []string{"A", "B", "C", "FINAL"}, nil),
		"names joined":     kernels([]string{"INIT"}, []string{"A,B", "C"}, []string{"FINAL"}),
		"length in a name": kernels([]string{"INIT"}, []string{"A1:B", "C"}, []string{"FINAL"}),
	} {
		if other, dup := keys[k]; dup {
			t.Errorf("kernel lists %q and %q share a study key", name, other)
		}
		keys[k] = name
	}
}

// btShapedSynthetic is a synthetic workload with BT's kernel structure:
// one kernel before the loop, a five-kernel ring, one after. At chain
// lengths 2 and 3 with three actual runs its study plans 20 jobs.
func btShapedSynthetic() *Synthetic {
	return &Synthetic{
		SyntheticName: "bt-shaped",
		Pre:           []string{"INITIALIZATION"},
		Loop:          []string{"COPY_FACES", "X_SOLVE", "Y_SOLVE", "Z_SOLVE", "ADD"},
		Post:          []string{"FINAL"},
		Base: map[string]float64{
			"INITIALIZATION": 3, "FINAL": 1,
			"COPY_FACES": 0.4, "X_SOLVE": 2.1, "Y_SOLVE": 2.3, "Z_SOLVE": 2.2, "ADD": 0.3,
		},
		Delta: map[string]float64{"COPY_FACES|X_SOLVE": -0.2, "Z_SOLVE|ADD": 0.1},
	}
}

// TestFromCacheStudyAllocs bounds what assembling a from-cache study out
// of the memory tier allocates: plan, lookups, provenance and analysis of
// a 20-job BT-shaped study. It cost 239 allocations while every lookup
// rendered and hashed its job's strings, every window key was joined at
// each use and every window list was copied; 47 once each is built once.
// Under -race the figure is logged, not checked.
func TestFromCacheStudyAllocs(t *testing.T) {
	w := btShapedSynthetic()
	chains := []int{2, 3}
	o := Options{Cache: plan.NewCache(), ActualRuns: 3}
	if _, err := RunStudy(w, 10, chains, o); err != nil {
		t.Fatal(err)
	}
	in := planInputs(w, 10, chains, o)
	ctx := context.Background()
	var st *Study
	var err error
	allocs := testing.AllocsPerRun(50, func() { st, err = loadStudy(ctx, w, in, o.Cache) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Exec.Planned != 20 {
		t.Fatalf("the study plans %d jobs, want 20", st.Exec.Planned)
	}
	t.Logf("a 20-job from-cache study allocates %.0f times", allocs)
	if !raceEnabled() && allocs > 47 {
		t.Errorf("a 20-job from-cache study allocates %.0f times, budget 47: a job, window key or window list is being rebuilt per use", allocs)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	if bi == nil {
		return false
	}
	for _, st := range bi.Settings {
		if st.Key == "-race" {
			return st.Value == "true"
		}
	}
	return false
}
