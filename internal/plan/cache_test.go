package plan

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
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
	if len(c.mem) != 1 {
		t.Errorf("%d entries in memory, want 1", len(c.mem))
	}
}

// TestCacheMemoryHitDoesNotAllocate: a lookup the memory tier answers
// renders the job's canonical string on the stack and hashes nothing, so
// a from-cache study pays nothing per job it already holds.
func TestCacheMemoryHitDoesNotAllocate(t *testing.T) {
	c := NewCache()
	j := WindowJob(btInputs(), []string{"COPY_FACES", "X_SOLVE"})
	if err := c.Put(j, Result{Seconds: 1.5, Raw: []float64{1.4, 1.6}}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(j); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("a memory hit allocates %.0f times, want 0", n)
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

// logLine renders the record Put appends for a job.
func logLine(t testing.TB, j Job, r Result) []byte {
	t.Helper()
	data, err := json.Marshal(entry{Canonical: j.Canonical(), Result: r})
	if err != nil {
		t.Fatal(err)
	}
	return []byte(j.Key() + " " + string(data) + "\n")
}

// openLogOf writes data as dir's log and opens a cache on it.
func openLogOf(t testing.TB, dir string, data []byte) *Cache {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return openDir(t, dir)
}

func openDir(t testing.TB, dir string) *Cache {
	t.Helper()
	c, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// onlyTheLog fails the test if dir holds anything but the log.
func onlyTheLog(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != logName {
			t.Errorf("cache directory holds %s beside the log", e.Name())
		}
	}
}

func TestDirCachePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	j := ActualJob(btInputs(), 0)
	r := Result{Seconds: 4.2, Raw: []float64{4.2}}

	c1 := openDir(t, dir)
	if err := c1.Put(j, r); err != nil {
		t.Fatal(err)
	}

	// A fresh instance over the same dir must serve the entry from disk.
	c2 := openDir(t, dir)
	got, ok := c2.Get(j)
	if !ok || !reflect.DeepEqual(got, r) {
		t.Fatalf("disk Get = %+v, %v; want %+v", got, ok, r)
	}
	onlyTheLog(t, dir)
}

// TestDirCacheLogBytes pins the bytes one Put appends to the log: the
// job key, a space, the entry as compact JSON in field order, a newline.
// Every -cache-dir already written is read back by this layout, so a
// change to Result's fields, order or tags shows here first.
func TestDirCacheLogBytes(t *testing.T) {
	dir := t.TempDir()
	c := openDir(t, dir)
	j := WindowJob(btInputs(), []string{"COPY_FACES", "X_SOLVE"})
	r := Result{Seconds: 0.0015, Raw: []float64{0.0014, 0.0015, 1.6e-3, 2e-9, 0.25}, TrimFrac: 0.34, Passes: 2}
	if err := c.Put(j, r); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	const want = `cc67da9118cf6dfdd837eb75 {"canonical":"v1|kind=window|wl=BT.S.4|procs=4|win=COPY_FACES|X_SOLVE|blocks=5|passes=1|trim=0|world=grid=12 x 12 x 12|fault=",` +
		`"result":{"seconds":0.0015,"raw":[0.0014,0.0015,0.0016,2e-9,0.25],"trim_frac":0.34,"passes":2}}` + "\n"
	if string(got) != want {
		t.Errorf("log bytes changed\n got: %q\nwant: %q", got, want)
	}
}

// TestDirCacheParallelGetsOfDistinctKeysDoNotSerialize: the regression
// test for the lock-across-disk-I/O bug — with the mutex held across the
// read, a Get of key B would block behind a stalled read of key A,
// serializing every -parallel N worker on one disk read.
func TestDirCacheParallelGetsOfDistinctKeysDoNotSerialize(t *testing.T) {
	dir := t.TempDir()
	in := btInputs()
	jobA := WindowJob(in, []string{"ADD"})
	jobB := WindowJob(in, []string{"X_SOLVE"})

	warm := openDir(t, dir)
	if err := warm.Put(jobA, Result{Seconds: 1}); err != nil {
		t.Fatal(err)
	}
	if err := warm.Put(jobB, Result{Seconds: 2}); err != nil {
		t.Fatal(err)
	}

	// A fresh instance reads both keys cold. The first lookup, key A's, is
	// stalled in the guard; key B's Get must complete while A is still in
	// flight.
	cold := openDir(t, dir)
	var lookups atomic.Int32
	inReadA := make(chan struct{})
	releaseA := make(chan struct{})
	cold.SetReadGuard(func(read func() error) error {
		if lookups.Add(1) == 1 {
			close(inReadA)
			<-releaseA
		}
		return read()
	})

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
// one disk lookup, and every caller must see the same result.
func TestDirCacheColdReadStampede(t *testing.T) {
	dir := t.TempDir()
	j := WindowJob(btInputs(), []string{"COPY_FACES", "ADD"})
	want := Result{Seconds: 3.14, Raw: []float64{3.1, 3.2}, Passes: 1}

	warm := openDir(t, dir)
	if err := warm.Put(j, want); err != nil {
		t.Fatal(err)
	}

	cold := openDir(t, dir)
	var reads atomic.Int32
	inRead := make(chan struct{})
	release := make(chan struct{})
	cold.SetReadGuard(func(read func() error) error {
		if reads.Add(1) == 1 {
			close(inRead)
		}
		<-release
		return read()
	})

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
// interleave bytes — the log is one whole record per Put, each one
// servable, and whichever landed last is the key's value.
func TestDirCacheConcurrentPutsOfSameKey(t *testing.T) {
	dir := t.TempDir()
	c := openDir(t, dir)
	j := WindowJob(btInputs(), []string{"Y_SOLVE"})
	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.Put(j, Result{Seconds: float64(i + 1)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != writers {
		t.Fatalf("%d Puts left %d lines in the log", writers, len(lines))
	}
	var last entry
	for _, line := range lines {
		key, rest, _ := bytes.Cut(line, []byte(" "))
		if string(key) != j.Key() || json.Unmarshal(rest, &last) != nil || last.Canonical != j.Canonical() {
			t.Fatalf("log line is not one whole record: %q", line)
		}
	}
	r, ok := openDir(t, dir).Get(j)
	if !ok || r.Seconds != last.Result.Seconds {
		t.Fatalf("disk entry after concurrent Puts = %+v, %v; the log's last record says %v", r, ok, last.Result.Seconds)
	}
	onlyTheLog(t, dir)
}

// TestDirCacheRejectsCorruptAndMismatchedEntries: a record damaged
// anywhere — key, JSON, canonical — is a miss for every job, is read from
// disk each time it is asked for, and never reaches the memory tier.
func TestDirCacheRejectsCorruptAndMismatchedEntries(t *testing.T) {
	j := WindowJob(btInputs(), []string{"ADD"})
	other := WindowJob(btInputs(), []string{"X_SOLVE"})
	good := logLine(t, j, Result{Seconds: 1})
	flip := func(at int) []byte {
		b := append([]byte(nil), good...)
		b[at] ^= 0x01
		return b
	}
	canonicalAt := bytes.Index(good, []byte("kind=")) // inside the canonical string
	for _, tc := range []struct {
		name string
		log  []byte
		// lookups is how many of the two Gets below get as far as a read
		// that finds a record: a damaged key is not j's record at all.
		found int
	}{
		{"not json", []byte(j.Key() + " {not json\n"), 2},
		{"another job's canonical under this key", append([]byte(j.Key()+" "), logLine(t, other, Result{Seconds: 1})[keyLen+1:]...), 2},
		{"bit flipped in the key", flip(3), 0},
		{"key not hex", append([]byte("g"), good[1:]...), 0},
		{"bit flipped in the json", flip(keyLen + 1), 2},
		{"bit flipped in the canonical", flip(canonicalAt), 2},
		{"separator missing", append(append([]byte(nil), good[:keyLen]...), good[keyLen+1:]...), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := openLogOf(t, t.TempDir(), tc.log)
			found := 0
			c.SetReadGuard(func(read func() error) error {
				err := read()
				if err == nil {
					found++
				} else if !errors.Is(err, fs.ErrNotExist) {
					t.Errorf("lookup failed with %v, want a record or fs.ErrNotExist", err)
				}
				return err
			})
			for i := 0; i < 2; i++ {
				if _, ok := c.Get(j); ok {
					t.Fatal("damaged record served as a hit")
				}
			}
			if found != tc.found {
				t.Errorf("%d of 2 lookups read a record, want %d", found, tc.found)
			}
			if len(c.mem) != 0 {
				t.Errorf("damaged record reached the memory tier (%d entries)", len(c.mem))
			}
		})
	}
	// The undamaged record, for contrast, is a hit.
	if r, ok := openLogOf(t, t.TempDir(), good).Get(j); !ok || r.Seconds != 1 {
		t.Fatalf("intact record = %+v, %v", r, ok)
	}

	// Records append does not write — fields reordered, unknown or
	// repeated, whitespace, escapes, a numeric edge — are read as
	// json.Unmarshal reads them, hit or miss, nil Raw or empty. The record
	// reader takes the reader-takes-* ones and hands the rest over.
	byKey := map[string]Job{}
	for _, j := range fuzzJobs() {
		byKey[j.Key()] = j
	}
	for name, data := range readerCorpus(t) {
		t.Run(name, func(t *testing.T) {
			line := bytes.TrimSuffix(data, []byte("\n"))
			j, ok := byKey[string(line[:keyLen])]
			if !ok || bytes.Count(data, []byte("\n")) != 1 || line[keyLen] != ' ' {
				t.Fatalf("corpus entry is not one record of a fuzz job: %q", data)
			}
			_, taken := readRecord(line[keyLen+1:], j.Canonical())
			if want := strings.HasPrefix(name, "reader-takes-"); taken != want {
				t.Errorf("the record reader took the record: %v, want %v", taken, want)
			}
			checkLogAgainstJSON(t, data)
		})
	}
}

// TestDirCacheTornTail: a log that ends inside a record — any prefix of
// it — reads as the records before it and nothing else, and the next
// append starts a line of its own.
func TestDirCacheTornTail(t *testing.T) {
	in := btInputs()
	a, b, torn, next := WindowJob(in, []string{"ADD"}), WindowJob(in, []string{"X_SOLVE"}), WindowJob(in, []string{"Y_SOLVE"}), WindowJob(in, []string{"Z_SOLVE"})
	whole := append(logLine(t, a, Result{Seconds: 1}), logLine(t, b, Result{Seconds: 2})...)
	last := logLine(t, torn, Result{Seconds: 3, Raw: []float64{2.9, 3.1}})
	for cut := 0; cut < len(last); cut++ {
		dir := t.TempDir()
		c := openLogOf(t, dir, append(append([]byte(nil), whole...), last[:cut]...))
		if r, ok := c.Get(a); !ok || r.Seconds != 1 {
			t.Fatalf("cut %d: first record = %+v, %v", cut, r, ok)
		}
		if r, ok := c.Get(b); !ok || r.Seconds != 2 {
			t.Fatalf("cut %d: second record = %+v, %v", cut, r, ok)
		}
		if r, ok := c.Get(torn); ok {
			t.Fatalf("cut %d: torn record served: %+v", cut, r)
		}
		if err := c.Put(next, Result{Seconds: 4}); err != nil {
			t.Fatal(err)
		}
		fresh := openDir(t, dir)
		if r, ok := fresh.Get(next); !ok || r.Seconds != 4 {
			t.Fatalf("cut %d: record appended after the torn tail = %+v, %v", cut, r, ok)
		}
		if r, ok := fresh.Get(torn); ok {
			t.Fatalf("cut %d: torn record served after an append: %+v", cut, r)
		}
		fresh.Close()
		c.Close()
	}
}

// TestDirCacheDuplicateKeyLastWins: on disk the last record of a key is
// its value; in memory a Put of an equal value changes nothing a Derive
// could have seen, and a different one moves the epoch.
func TestDirCacheDuplicateKeyLastWins(t *testing.T) {
	dir := t.TempDir()
	j := WindowJob(btInputs(), []string{"ADD"})
	c := openDir(t, dir)
	builds := 0
	put := func(r Result) {
		t.Helper()
		if err := c.Put(j, r); err != nil {
			t.Fatal(err)
		}
	}
	derive := func() float64 {
		t.Helper()
		v, err := c.Derive("k", seconds(c, j, &builds))
		if err != nil {
			t.Fatal(err)
		}
		return v.(float64)
	}
	put(Result{Seconds: 1, Raw: []float64{1}})
	if derive() != 1 || builds != 1 {
		t.Fatalf("first Derive after %d builds", builds)
	}
	put(Result{Seconds: 1, Raw: []float64{1}})
	if derive() != 1 || builds != 1 {
		t.Errorf("an equal duplicate rebuilt the derived value (%d builds)", builds)
	}
	put(Result{Seconds: 2})
	if derive() != 2 || builds != 2 {
		t.Errorf("a different duplicate: derived %v after %d builds, want 2 after 2", derive(), builds)
	}
	if r, ok := openDir(t, dir).Get(j); !ok || r.Seconds != 2 || r.Raw != nil {
		t.Errorf("a fresh cache reads %+v, %v; want the last of the three records", r, ok)
	}
}

// TestDirCacheTwoWritersOneDirectory: two caches append to one directory
// at once, as two processes would — each through its own descriptor — and
// a third, opened afterwards, reads every record of both. A Put that took
// two writes would interleave here.
func TestDirCacheTwoWritersOneDirectory(t *testing.T) {
	dir := t.TempDir()
	const each = 1000
	job := func(w, i int) Job {
		in := btInputs()
		in.WorldDigest = "writer=" + strconv.Itoa(w) + ";i=" + strconv.Itoa(i)
		return WindowJob(in, []string{"ADD"})
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		c := openDir(t, dir)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := c.Put(job(w, i), Result{Seconds: float64(w*each + i + 1)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	third := openDir(t, dir)
	for w := 0; w < 2; w++ {
		for i := 0; i < each; i++ {
			if r, ok := third.Get(job(w, i)); !ok || r.Seconds != float64(w*each+i+1) {
				t.Fatalf("writer %d record %d = %+v, %v", w, i, r, ok)
			}
		}
	}
	onlyTheLog(t, dir)
}

// TestDirCacheSeesAppendsAfterOpen: the index is not a snapshot. A record
// another cache appends after this one opened is found in the tail, and
// so is every record, its own included, by a view of the directory opened
// before any of them was written.
func TestDirCacheSeesAppendsAfterOpen(t *testing.T) {
	dir := t.TempDir()
	in := btInputs()
	mine, theirs := WindowJob(in, []string{"ADD"}), WindowJob(in, []string{"X_SOLVE"})
	view, c, other := openDir(t, dir), openDir(t, dir), openDir(t, dir)
	if err := c.Put(mine, Result{Seconds: 1}); err != nil {
		t.Fatal(err)
	}
	if err := other.Put(theirs, Result{Seconds: 2}); err != nil {
		t.Fatal(err)
	}
	if r, ok := c.Get(theirs); !ok || r.Seconds != 2 {
		t.Errorf("another writer's record = %+v, %v", r, ok)
	}
	if len(view.mem) != 0 {
		t.Fatal("a view opened on an empty log holds entries")
	}
	if r, ok := view.Get(mine); !ok || r.Seconds != 1 {
		t.Errorf("the earlier view reads the first record as %+v, %v; want it served from the log", r, ok)
	}
	if r, ok := view.Get(theirs); !ok || r.Seconds != 2 {
		t.Errorf("the earlier view reads the second record as %+v, %v; want it served from the log", r, ok)
	}
}

// TestDirCacheMissIsAMapMissAndAnFstat: a lookup goes through the open
// descriptor, never the path — with the directory gone a record is still
// read and an absent key is still a plain "not present", twice over (the
// cached backend's probe, then the executor's) without touching mem.
func TestDirCacheMissIsAMapMissAndAnFstat(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	in := btInputs()
	held, absent := WindowJob(in, []string{"ADD"}), WindowJob(in, []string{"X_SOLVE"})
	if err := openDir(t, dir).Put(held, Result{Seconds: 1}); err != nil {
		t.Fatal(err)
	}
	c := openDir(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	lookups, notPresent := 0, 0
	c.SetReadGuard(func(read func() error) error {
		lookups++
		err := read()
		if errors.Is(err, fs.ErrNotExist) {
			notPresent++
		} else if err != nil {
			t.Errorf("lookup through the descriptor failed: %v", err)
		}
		return err
	})
	for i := 0; i < 2; i++ {
		if _, ok := c.Get(absent); ok {
			t.Fatal("absent key served")
		}
	}
	if lookups != 2 || notPresent != 2 {
		t.Errorf("two probes of an absent key: %d lookups, %d not-present; want 2 and 2", lookups, notPresent)
	}
	if r, ok := c.Get(held); !ok || r.Seconds != 1 {
		t.Errorf("record read through the descriptor = %+v, %v", r, ok)
	}
}

// TestDirCacheIgnoresKeyFiles: the log is the one format a directory is
// read in. A directory that holds only the per-key <key>.json files of the
// release before the log opens as an empty cache: every lookup misses, the
// log stays empty and the files are left as they were.
func TestDirCacheIgnoresKeyFiles(t *testing.T) {
	dir := t.TempDir()
	in := btInputs()
	jobs := []Job{WindowJob(in, []string{"ADD"}), ActualJob(in, 0)}
	files := map[string][]byte{}
	for i, j := range jobs {
		data, err := json.Marshal(entry{Canonical: j.Canonical(), Result: Result{Seconds: float64(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(dir, j.Key()+".json")
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	c := openDir(t, dir)
	for _, j := range jobs {
		if r, ok := c.Get(j); ok {
			t.Errorf("%s served from a key file: %+v", j.Key(), r)
		}
	}
	if log, err := os.ReadFile(filepath.Join(dir, logName)); err != nil || len(log) != 0 {
		t.Errorf("log after opening a key-file directory = %q, %v; want it empty", log, err)
	}
	for name, want := range files {
		if got, err := os.ReadFile(name); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s = %q, %v; want it untouched", filepath.Base(name), got, err)
		}
	}
}

// TestDirCacheClose: Close gives the descriptor back; what memory holds
// still serves, and a Put says it could not persist.
func TestDirCacheClose(t *testing.T) {
	dir := t.TempDir()
	in := btInputs()
	before, after := WindowJob(in, []string{"ADD"}), WindowJob(in, []string{"X_SOLVE"})
	c := openDir(t, dir)
	if err := c.Put(before, Result{Seconds: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(after, Result{Seconds: 2}); err == nil {
		t.Error("Put after Close reported no error")
	}
	for _, j := range []Job{before, after} {
		if _, ok := c.Get(j); !ok {
			t.Errorf("%s not served from memory after Close", j.Key())
		}
	}
	fresh := openDir(t, dir)
	if _, ok := fresh.Get(before); !ok {
		t.Error("record written before Close is not in the log")
	}
	if _, ok := fresh.Get(after); ok {
		t.Error("record Put after Close reached the log")
	}
	if err := NewCache().Close(); err != nil {
		t.Errorf("closing an in-memory cache: %v", err)
	}
}

// fuzzJobs are the jobs FuzzCacheLogScan asks a fuzzed log for; the
// committed corpus is built from their records. The last two have
// canonicals the record writer must escape: one holds a '/' and an '&'
// (written "\u0026"); the other holds quotes, placed so that the canonical
// written unescaped into a record is valid JSON naming another canonical.
func fuzzJobs() []Job {
	in := btInputs()
	escaped, quoted := in, in
	escaped.WorldDigest += " net=lat/bw&jitter"
	quoted.FaultDigest = `seed=1","note":"x`
	return []Job{
		WindowJob(in, []string{"ADD"}),
		WindowJob(in, []string{"X_SOLVE"}),
		WindowJob(in, []string{"COPY_FACES", "X_SOLVE"}),
		ActualJob(in, 0),
		WindowJob(escaped, []string{"ADD"}),
		WindowJob(quoted, []string{"ADD"}),
	}
}

// FuzzCacheLogScan opens arbitrary bytes as a log. Opening never fails or
// panics, no indexed span reaches outside the bytes, and for each of
// fuzzJobs Get agrees with the plainest reading of the format: the last
// newline-terminated line that starts with the job's key and a space and
// does not end in tornMark's '!', if json.Unmarshal decodes its remainder
// to an entry with the job's canonical — so whatever Get returns hashes
// to the key it was asked for, in whatever order the jobs are asked, and
// the record reader reads every record it takes as json.Unmarshal does.
func FuzzCacheLogScan(f *testing.F) {
	var whole []byte
	for i, j := range fuzzJobs() {
		whole = append(whole, logLine(f, j, Result{Seconds: float64(i + 1), Raw: []float64{0.5, 1.5}, TrimFrac: 0.34, Passes: 1})...)
	}
	f.Add(whole) // the damaged and reordered variants are testdata/fuzz/FuzzCacheLogScan
	f.Fuzz(checkLogAgainstJSON)
}

// checkLogAgainstJSON is FuzzCacheLogScan's property, for one log.
func checkLogAgainstJSON(t *testing.T, data []byte) {
	jobs := fuzzJobs()
	c := openLogOf(t, t.TempDir(), data)
	for key, sp := range c.index {
		// Opening indexes complete lines only, and those lie in data.
		if sp.off < keyLen+1 || sp.n < 1 || sp.off+int64(sp.n) > int64(len(data)) {
			t.Fatalf("key %s indexed at [%d,+%d) of a %d-byte log", key, sp.off, sp.n, len(data))
		}
	}
	lines := bytes.Split(data, []byte("\n"))
	lines = lines[:len(lines)-1] // what follows the last newline is not a line yet
	check := func(c *Cache, j Job) {
		var want *entry
		prefix := []byte(j.Key() + " ")
		for _, line := range lines {
			if len(line) > len(prefix) && bytes.HasPrefix(line, prefix) && line[len(line)-1] != tornMark[0] {
				var e entry
				want = nil
				if json.Unmarshal(line[len(prefix):], &e) == nil && e.Canonical == j.Canonical() {
					want = &e
				}
			}
		}
		got, ok := c.Get(j)
		switch {
		case want == nil && ok:
			t.Fatalf("%s: Get served %+v from a log that has no such record", j.Key(), got)
		case want != nil && !ok:
			t.Fatalf("%s: Get missed %+v", j.Key(), want.Result)
		case want != nil && !reflect.DeepEqual(got, want.Result): // a nil Raw is not an empty one
			t.Fatalf("%s: Get = %#v, the log says %#v", j.Key(), got, want.Result)
		case want != nil && keyOf(want.Canonical) != j.Key():
			t.Fatalf("%s: served an entry that hashes to %s", j.Key(), keyOf(want.Canonical))
		}
	}
	// A miss scans the tail, which must not change another key's
	// answer: a second cache over the same bytes is asked in reverse.
	reversed := openLogOf(t, t.TempDir(), data)
	for i := range jobs {
		check(c, jobs[i])
	}
	for i := range jobs {
		check(reversed, jobs[len(jobs)-1-i])
	}
}

// readerCorpus returns the committed FuzzCacheLogScan inputs named
// reader-takes-* and reader-refuses-*: one record each, for one of
// fuzzJobs, laid out the way append writes or not.
func readerCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzCacheLogScan", "reader-*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no reader-* corpus entries (%v)", err)
	}
	corpus := map[string][]byte{}
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is a header line and one []byte("...") literal.
		header, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(lit, "[]byte(")
		quoted, ok2 := strings.CutSuffix(quoted, ")")
		data, err := strconv.Unquote(quoted)
		if header != "go test fuzz v1" || !ok || !ok2 || err != nil {
			t.Fatalf("%s is not a one-value corpus entry", name)
		}
		corpus[filepath.Base(name)] = []byte(data)
	}
	return corpus
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache()
			put(t, c, j, first)
			builds := 0
			if v, err := c.Derive("k", seconds(c, j, &builds)); err != nil || v != 1.0 || builds != 1 {
				t.Fatalf("first Derive = %v, %v after %d builds", v, err, builds)
			}
			tc.between(t, c)
			// Peek holds a value exactly when Derive would not build, and
			// it is the value Derive returns.
			if v, ok := c.Peek("k"); ok == tc.rebuilt || (ok && v != tc.want) {
				t.Errorf("Peek = %v, %v; want a hit on %v exactly when Derive does not rebuild", v, ok, tc.want)
			}
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
		if v, ok := c.Peek("k"); ok || v != nil {
			t.Errorf("Peek after a failed build = %v, %v; nothing was stored", v, ok)
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
