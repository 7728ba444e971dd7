package plan

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheRoundTrip(t *testing.T) {
	c := NewCache()
	j := WindowJob(btInputs(), []string{"COPY_FACES", "X_SOLVE"})
	if _, ok := c.Get(j); ok {
		t.Fatal("empty cache reported a hit")
	}
	r := Result{Seconds: 1.5, Raw: []float64{1.4, 1.5, 1.6}, TrimFrac: 0.34, Passes: 1}
	if err := c.Put(j, r); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(j)
	if !ok || !reflect.DeepEqual(got, r) {
		t.Fatalf("Get = %+v, %v; want %+v", got, ok, r)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	c.Reset()
	if _, ok := c.Get(j); ok {
		t.Error("Reset did not clear the in-memory cache")
	}
}

// TestCacheFaultDigestSeparation: the fault digest is part of the key, so
// results measured under injection never serve a clean study (and vice
// versa) — the cache-correctness property ISSUE 4 calls out.
func TestCacheFaultDigestSeparation(t *testing.T) {
	c := NewCache()
	clean := btInputs()
	faulty := btInputs()
	faulty.FaultDigest = "spec=crash:X_SOLVE:2:1:0s;seed=7"
	win := []string{"COPY_FACES", "X_SOLVE"}

	if err := c.Put(WindowJob(faulty, win), Result{Seconds: 9.9}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(WindowJob(clean, win)); ok {
		t.Fatal("injected-run result served a clean study")
	}
	if err := c.Put(WindowJob(clean, win), Result{Seconds: 1.1}); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(WindowJob(faulty, win)); !ok || got.Seconds != 9.9 {
		t.Fatalf("faulty entry = %+v, %v", got, ok)
	}
	if got, ok := c.Get(WindowJob(clean, win)); !ok || got.Seconds != 1.1 {
		t.Fatalf("clean entry = %+v, %v", got, ok)
	}
}

func TestDirCachePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	j := ActualJob(btInputs(), 0)
	r := Result{Seconds: 4.2, Raw: []float64{4.2}}

	c1, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(j, r); err != nil {
		t.Fatal(err)
	}

	// A fresh instance over the same dir must serve the entry from disk.
	c2, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(j)
	if !ok || !reflect.DeepEqual(got, r) {
		t.Fatalf("disk Get = %+v, %v; want %+v", got, ok, r)
	}
}

// TestDirCacheParallelGetsOfDistinctKeysDoNotSerialize: the regression
// test for the lock-across-disk-I/O bug — with the mutex held across
// os.ReadFile, a Get of key B would block behind a stalled read of key A,
// serializing every -parallel N worker on one disk read.
func TestDirCacheParallelGetsOfDistinctKeysDoNotSerialize(t *testing.T) {
	dir := t.TempDir()
	in := btInputs()
	jobA := WindowJob(in, []string{"ADD"})
	jobB := WindowJob(in, []string{"X_SOLVE"})

	warm, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Put(jobA, Result{Seconds: 1}); err != nil {
		t.Fatal(err)
	}
	if err := warm.Put(jobB, Result{Seconds: 2}); err != nil {
		t.Fatal(err)
	}

	// A fresh instance reads both keys cold. Key A's disk read is stalled
	// on a channel; key B's Get must complete while A is still in flight.
	cold, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	inReadA := make(chan struct{})
	releaseA := make(chan struct{})
	cold.readFile = func(path string) ([]byte, error) {
		if path == cold.path(jobA.Key()) {
			close(inReadA)
			<-releaseA
		}
		return os.ReadFile(path)
	}

	gotA := make(chan Result, 1)
	go func() {
		r, ok := cold.Get(jobA)
		if !ok {
			r = Result{Seconds: -1}
		}
		gotA <- r
	}()
	<-inReadA

	done := make(chan Result, 1)
	go func() {
		r, ok := cold.Get(jobB)
		if !ok {
			r = Result{Seconds: -1}
		}
		done <- r
	}()
	select {
	case r := <-done:
		if r.Seconds != 2 {
			t.Fatalf("Get(B) = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get(B) blocked behind the stalled disk read of A — cache serializes distinct keys")
	}

	close(releaseA)
	if r := <-gotA; r.Seconds != 1 {
		t.Fatalf("Get(A) = %+v", r)
	}
}

// TestDirCacheColdReadStampede: N goroutines Get the same uncached key
// concurrently; the per-key singleflight must collapse them onto exactly
// one disk read, and every caller must see the same result.
func TestDirCacheColdReadStampede(t *testing.T) {
	dir := t.TempDir()
	j := WindowJob(btInputs(), []string{"COPY_FACES", "ADD"})
	want := Result{Seconds: 3.14, Raw: []float64{3.1, 3.2}, Passes: 1}

	warm, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Put(j, want); err != nil {
		t.Fatal(err)
	}

	cold, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int32
	inRead := make(chan struct{})
	release := make(chan struct{})
	cold.readFile = func(path string) ([]byte, error) {
		if reads.Add(1) == 1 {
			close(inRead)
		}
		<-release
		return os.ReadFile(path)
	}

	const n = 32
	results := make([]Result, n)
	oks := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], oks[i] = cold.Get(j)
		}(i)
	}
	// Hold the first (and only) disk read open until the whole stampede
	// is in flight, then let it finish.
	<-inRead
	close(release)
	wg.Wait()

	if got := reads.Load(); got != 1 {
		t.Errorf("disk reads = %d, want exactly 1", got)
	}
	for i := 0; i < n; i++ {
		if !oks[i] || !reflect.DeepEqual(results[i], want) {
			t.Fatalf("goroutine %d: Get = %+v, %v; want %+v", i, results[i], oks[i], want)
		}
	}
}

// TestDirCacheConcurrentPutsOfSameKey: concurrent writers must never
// interleave bytes — whichever rename lands last, the file is one
// complete, servable entry.
func TestDirCacheConcurrentPutsOfSameKey(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := WindowJob(btInputs(), []string{"Y_SOLVE"})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.Put(j, Result{Seconds: float64(i + 1)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	fresh, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := fresh.Get(j)
	if !ok || r.Seconds < 1 || r.Seconds > 16 {
		t.Fatalf("disk entry after concurrent Puts = %+v, %v", r, ok)
	}
	// No temp files may survive the renames.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestDirCacheRejectsCorruptAndMismatchedEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := WindowJob(btInputs(), []string{"ADD"})

	// Corrupt JSON is a miss, not an error.
	path := filepath.Join(dir, j.Key()+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(j); ok {
		t.Error("corrupt entry served as a hit")
	}

	// A file with the right name but a different canonical pre-image
	// (stale key scheme, collision) is also a miss.
	other := WindowJob(btInputs(), []string{"X_SOLVE"})
	data := `{"canonical":` + "\"" + other.Canonical() + "\"" + `,"result":{"seconds":1}}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(j); ok {
		t.Error("mismatched canonical served as a hit")
	}
}

// seconds is the build the Derive tests memoise: the job's current value,
// failing — as a from-cache study does — when the cache does not hold it.
func seconds(c *Cache, j Job, builds *int) func() (any, error) {
	return func() (any, error) {
		*builds++
		r, ok := c.Get(j)
		if !ok {
			return nil, errCacheMiss
		}
		return r.Seconds, nil
	}
}

// TestDeriveContract: a memoised value survives everything that cannot
// have changed it and nothing that can.
func TestDeriveContract(t *testing.T) {
	j := WindowJob(btInputs(), []string{"ADD"})
	other := WindowJob(btInputs(), []string{"X_SOLVE"})
	first := Result{Seconds: 1, Raw: []float64{0.9, 1.1}, TrimFrac: 0.34, Passes: 1}
	put := func(t *testing.T, c *Cache, j Job, r Result) {
		t.Helper()
		if err := c.Put(j, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		between func(t *testing.T, c *Cache)
		rebuilt bool
		want    float64
	}{
		{"nothing happens", func(*testing.T, *Cache) {}, false, 1},
		{"same result put again", func(t *testing.T, c *Cache) {
			put(t, c, j, Result{Seconds: 1, Raw: []float64{0.9, 1.1}, TrimFrac: 0.34, Passes: 1})
		}, false, 1},
		{"another job put", func(t *testing.T, c *Cache) { put(t, c, other, Result{Seconds: 7}) }, false, 1},
		{"different seconds", func(t *testing.T, c *Cache) { put(t, c, j, Result{Seconds: 2}) }, true, 2},
		{"different raw block only", func(t *testing.T, c *Cache) {
			put(t, c, j, Result{Seconds: 1, Raw: []float64{0.9, 1.2}, TrimFrac: 0.34, Passes: 1})
		}, true, 1},
		{"reset then refilled", func(t *testing.T, c *Cache) {
			c.Reset()
			put(t, c, j, Result{Seconds: 3})
		}, true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache()
			put(t, c, j, first)
			builds := 0
			if v, err := c.Derive("k", seconds(c, j, &builds)); err != nil || v != 1.0 || builds != 1 {
				t.Fatalf("first Derive = %v, %v after %d builds", v, err, builds)
			}
			tc.between(t, c)
			v, err := c.Derive("k", seconds(c, j, &builds))
			if err != nil || v != tc.want {
				t.Fatalf("second Derive = %v, %v; want %v", v, err, tc.want)
			}
			if rebuilt := builds == 2; rebuilt != tc.rebuilt {
				t.Errorf("rebuilt = %v, want %v", rebuilt, tc.rebuilt)
			}
		})
	}

	t.Run("failed build is retried", func(t *testing.T) {
		c := NewCache()
		builds := 0
		if _, err := c.Derive("k", seconds(c, j, &builds)); err == nil {
			t.Fatal("a build over a missing job succeeded")
		}
		put(t, c, j, first)
		if v, err := c.Derive("k", seconds(c, j, &builds)); err != nil || v != 1.0 || builds != 2 {
			t.Fatalf("Derive after the job arrived = %v, %v after %d builds; the failure was memoised", v, err, builds)
		}
	})

	t.Run("capacity evicts the least recent", func(t *testing.T) {
		c := NewCache()
		put(t, c, j, first)
		builds := 0
		key := func(i int) string { return "k" + strconv.Itoa(i) }
		for i := 0; i <= memoCap; i++ {
			if _, err := c.Derive(key(i), seconds(c, j, &builds)); err != nil {
				t.Fatal(err)
			}
		}
		builds = 0
		if _, err := c.Derive(key(memoCap), seconds(c, j, &builds)); err != nil || builds != 0 {
			t.Errorf("newest of %d keys was rebuilt (%d builds, %v)", memoCap+1, builds, err)
		}
		if _, err := c.Derive(key(0), seconds(c, j, &builds)); err != nil || builds != 1 {
			t.Errorf("oldest of %d keys was still held (%d builds, %v)", memoCap+1, builds, err)
		}
	})
}

// TestDeriveOverwriteDuringBuild: a job is overwritten while a build that
// already read it is still running. That caller gets what it built; no
// later caller may, because the value describes an entry that is gone.
func TestDeriveOverwriteDuringBuild(t *testing.T) {
	c := NewCache()
	j := WindowJob(btInputs(), []string{"ADD"})
	if err := c.Put(j, Result{Seconds: 1}); err != nil {
		t.Fatal(err)
	}
	builds := 0
	read := seconds(c, j, &builds)
	inBuild, release := make(chan struct{}), make(chan struct{})
	racing := make(chan any, 1)
	go func() {
		v, err := c.Derive("k", func() (any, error) {
			v, err := read()
			close(inBuild)
			<-release
			return v, err
		})
		if err != nil {
			t.Error(err)
		}
		racing <- v
	}()
	<-inBuild
	if err := c.Put(j, Result{Seconds: 2}); err != nil {
		t.Fatal(err)
	}
	close(release)
	if v := <-racing; v != 1.0 {
		t.Errorf("the racing build returned %v, want the 1 it read", v)
	}
	for i := 0; i < 3; i++ {
		if v, err := c.Derive("k", read); err != nil || v != 2.0 {
			t.Fatalf("Derive %d after the overwrite = %v, %v: a value built before it was served", i, v, err)
		}
	}
	if builds != 2 {
		t.Errorf("%d builds, want the racing one and one rebuild", builds)
	}
}

// TestDeriveConcurrentOverwrites hammers one key from readers while a
// writer keeps replacing the job it is built from. Whatever interleaving
// the scheduler picks, a Derive that starts after Put(v) returned must
// not answer with anything older than v.
func TestDeriveConcurrentOverwrites(t *testing.T) {
	c := NewCache()
	j := WindowJob(btInputs(), []string{"ADD"})
	if err := c.Put(j, Result{Seconds: 1}); err != nil {
		t.Fatal(err)
	}
	var committed atomic.Int64
	committed.Store(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := float64(committed.Load())
				v, err := c.Derive("k", func() (any, error) {
					r, ok := c.Get(j)
					if !ok {
						return nil, errCacheMiss
					}
					return r.Seconds, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v.(float64) < floor {
					t.Errorf("Derive answered %v after Put(%v) had returned", v, floor)
					return
				}
			}
		}()
	}
	for v := int64(2); v <= 300; v++ {
		if err := c.Put(j, Result{Seconds: float64(v)}); err != nil {
			t.Fatal(err)
		}
		committed.Store(v)
	}
	close(stop)
	wg.Wait()
}
