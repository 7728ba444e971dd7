package harness

import (
	"errors"
	"os"
	"reflect"
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

// TestCachePutErrorsAreCountedNotFatal: a cache directory that cannot be
// written (full disk, read-only mount) must show up on the
// harness.cache.put_error counter while the study itself still succeeds.
func TestCachePutErrorsAreCountedNotFatal(t *testing.T) {
	dir := t.TempDir() + "/gone"
	cache, err := plan.NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
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

func TestRunFromCache(t *testing.T) {
	cache := plan.NewCache()
	opts := Options{Cache: cache}
	measured, err := RunStudy(fourKernelSynthetic(), 10, []int{2, 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Engine{Workload: fourKernelSynthetic(), Opts: opts}.RunFromCache(10, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if re.Actual != measured.Actual {
		t.Errorf("re-analyzed actual %v != %v", re.Actual, measured.Actual)
	}
	if !reflect.DeepEqual(re.Couplings, measured.Couplings) || !reflect.DeepEqual(re.Summation, measured.Summation) {
		t.Error("re-analysis differs from the measured study")
	}
	if re.Exec.CacheHits != re.Exec.Planned || re.Exec.Executed != 0 {
		t.Errorf("from-cache exec = %+v", re.Exec)
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
