package plan

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func testJobs(n int) []Job {
	in := btInputs()
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = WindowJob(in, []string{fmt.Sprintf("K%02d", i)})
	}
	return jobs
}

// TestExecutorSerialOrder: at Parallel 1 jobs run strictly sequentially
// in plan order — the timing-fidelity contract.
func TestExecutorSerialOrder(t *testing.T) {
	jobs := testJobs(8)
	var order []int
	out := Executor{Parallel: 1}.Run(jobs, func(i int, j Job) (Result, error) {
		order = append(order, i)
		return Result{Seconds: float64(i)}, nil
	})
	for i := range jobs {
		if order[i] != i {
			t.Fatalf("execution order %v not plan order", order)
		}
		if out[i].Err != nil || out[i].Result.Seconds != float64(i) {
			t.Fatalf("outcome %d = %+v", i, out[i])
		}
	}
}

func TestExecutorFatalStopsRemainingJobs(t *testing.T) {
	jobs := testJobs(6)
	boom := errors.New("boom")
	out := Executor{Parallel: 1}.Run(jobs, func(i int, j Job) (Result, error) {
		if i == 2 {
			return Result{}, boom
		}
		return Result{Seconds: 1}, nil
	})
	if !errors.Is(out[2].Err, boom) {
		t.Fatalf("job 2 err = %v", out[2].Err)
	}
	for i := 3; i < len(jobs); i++ {
		if !errors.Is(out[i].Err, ErrSkipped) {
			t.Errorf("job %d after fatal failure: err = %v, want ErrSkipped", i, out[i].Err)
		}
	}
	for i := 0; i < 2; i++ {
		if out[i].Err != nil {
			t.Errorf("job %d before the failure errored: %v", i, out[i].Err)
		}
	}
}

func TestExecutorNonFatalFailuresContinue(t *testing.T) {
	jobs := testJobs(5)
	out := Executor{Parallel: 1, Fatal: func(Job) bool { return false }}.Run(jobs, func(i int, j Job) (Result, error) {
		if i%2 == 0 {
			return Result{}, errors.New("flaky")
		}
		return Result{Seconds: 1}, nil
	})
	for i := range jobs {
		if i%2 == 0 && out[i].Err == nil {
			t.Errorf("job %d should have failed", i)
		}
		if i%2 == 1 && out[i].Err != nil {
			t.Errorf("job %d failed: %v", i, out[i].Err)
		}
	}
}

func TestExecutorServesAndFillsCache(t *testing.T) {
	jobs := testJobs(4)
	cache := NewCache()
	if err := cache.Put(jobs[1], Result{Seconds: 7}); err != nil {
		t.Fatal(err)
	}
	var ran int32
	out := Executor{Parallel: 1, Cache: cache}.Run(jobs, func(i int, j Job) (Result, error) {
		atomic.AddInt32(&ran, 1)
		return Result{Seconds: float64(i)}, nil
	})
	if ran != 3 {
		t.Errorf("ran %d jobs, want 3 (one cached)", ran)
	}
	if !out[1].Cached || out[1].Result.Seconds != 7 {
		t.Errorf("cached outcome = %+v", out[1])
	}
	// Fresh results must have been stored back.
	for i := range jobs {
		if _, ok := cache.Get(jobs[i]); !ok {
			t.Errorf("job %d missing from cache after run", i)
		}
	}
}

// TestExecutorServesCacheAfterFatalFailure: the regression test for the
// skip-before-cache bug — after a fatal failure, a later job whose result
// the cache already holds must resolve Cached, not ErrSkipped. Cached
// results cost no world; abandoning them contradicts the
// degrade-don't-crash ladder.
func TestExecutorServesCacheAfterFatalFailure(t *testing.T) {
	jobs := testJobs(6)
	cache := NewCache()
	if err := cache.Put(jobs[4], Result{Seconds: 7}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	out := Executor{Parallel: 1, Cache: cache}.Run(jobs, func(i int, j Job) (Result, error) {
		if i == 1 {
			return Result{}, boom
		}
		return Result{Seconds: 1}, nil
	})
	if !errors.Is(out[1].Err, boom) {
		t.Fatalf("job 1 err = %v", out[1].Err)
	}
	if !out[4].Cached || out[4].Err != nil || out[4].Result.Seconds != 7 {
		t.Fatalf("cached job after fatal failure = %+v, want Cached:true", out[4])
	}
	for _, i := range []int{2, 3, 5} {
		if !errors.Is(out[i].Err, ErrSkipped) {
			t.Errorf("uncached job %d after fatal failure: err = %v, want ErrSkipped", i, out[i].Err)
		}
	}
}

// TestExecutorSurfacesCachePutErrors: a persist failure must reach the
// OnCacheError hook while the outcome stays a success.
func TestExecutorSurfacesCachePutErrors(t *testing.T) {
	cache, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A closed cache fails every append — whatever uid the tests run as
	// (root ignores file modes, and an open descriptor outlives its
	// directory, so neither chmod nor removal would).
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	jobs := testJobs(3)
	var mu sync.Mutex
	var failures []string
	out := Executor{
		Parallel: 2,
		Cache:    cache,
		OnCacheError: func(j Job, err error) {
			mu.Lock()
			defer mu.Unlock()
			failures = append(failures, j.Label()+": "+err.Error())
		},
	}.Run(jobs, func(i int, j Job) (Result, error) {
		return Result{Seconds: 1}, nil
	})
	for i := range jobs {
		if out[i].Err != nil {
			t.Errorf("job %d failed: %v (persist errors must not fail measurements)", i, out[i].Err)
		}
	}
	if len(failures) != len(jobs) {
		t.Fatalf("OnCacheError fired %d times, want %d: %v", len(failures), len(jobs), failures)
	}
	if !strings.Contains(failures[0], "cache write") {
		t.Errorf("hook error = %q, want a cache write error", failures[0])
	}
}

// TestExecutorParallel exercises the worker pool under the race detector:
// results stay index-aligned and every job runs exactly once.
func TestExecutorParallel(t *testing.T) {
	jobs := testJobs(64)
	var mu sync.Mutex
	ran := map[int]int{}
	out := Executor{Parallel: 8, Cache: NewCache()}.Run(jobs, func(i int, j Job) (Result, error) {
		mu.Lock()
		ran[i]++
		mu.Unlock()
		return Result{Seconds: float64(i)}, nil
	})
	for i := range jobs {
		if ran[i] != 1 {
			t.Errorf("job %d ran %d times", i, ran[i])
		}
		if out[i].Result.Seconds != float64(i) {
			t.Errorf("outcome %d misaligned: %+v", i, out[i])
		}
	}
}

// TestExecutorDeadContextBoundsExecution: a context that dies (deadline
// budget spent, caller gone) stops new worlds at job granularity — but
// cached jobs still serve, mirroring the degrade-don't-discard rule for
// fatal failures.
func TestExecutorDeadContextBoundsExecution(t *testing.T) {
	jobs := testJobs(5)
	cache := NewCache()
	if err := cache.Put(jobs[3], Result{Seconds: 7}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead before the first job starts
	var ran int32
	out := Executor{Parallel: 1, Cache: cache, Ctx: ctx}.Run(jobs, func(i int, j Job) (Result, error) {
		atomic.AddInt32(&ran, 1)
		return Result{Seconds: 1}, nil
	})
	if ran != 0 {
		t.Errorf("ran %d jobs under a dead context, want 0", ran)
	}
	if !out[3].Cached || out[3].Result.Seconds != 7 {
		t.Errorf("cached job under dead context = %+v, want served from cache", out[3])
	}
	for _, i := range []int{0, 1, 2, 4} {
		if !errors.Is(out[i].Err, context.Canceled) {
			t.Errorf("job %d err = %v, want context.Canceled", i, out[i].Err)
		}
	}
}
