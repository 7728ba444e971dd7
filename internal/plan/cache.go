package plan

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"

	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/singleflight"
)

// Result is one job's measured outcome — the value the cache stores and
// the executor returns.
type Result struct {
	// Seconds is the aggregated value the predictors consume: per-pass
	// seconds for isolated/window jobs, wall-clock seconds for actual runs.
	Seconds float64 `json:"seconds"`
	// Raw holds the pre-aggregation observations (per-block per-pass
	// seconds); empty when the workload exposes no detail.
	Raw []float64 `json:"raw,omitempty"`
	// TrimFrac is the effective two-sided trim applied to Raw.
	TrimFrac float64 `json:"trim_frac,omitempty"`
	// Passes is the number of window passes each block timed.
	Passes int `json:"passes,omitempty"`
}

// entry is the persisted form of one cache slot. The canonical pre-image
// rides along so a disk entry can be audited and so a key truncation
// collision (or a stale file from an older key scheme) reads as a miss,
// never as a wrong result.
type entry struct {
	Canonical string `json:"canonical"`
	Result    Result `json:"result"`
}

// memoCap bounds the derived-value memo (Derive). The values it holds in
// practice are analysed studies, a few kilobytes each, so the memo's
// ceiling is a few megabytes however long the process serves.
const memoCap = 512

// derived is one memoised value with the epoch it was built in.
type derived struct {
	epoch uint64
	val   any
}

// errCacheMiss marks a disk lookup that found nothing servable (missing
// file, corrupt JSON, canonical mismatch). It is internal to Get: callers
// only ever see the boolean miss.
var errCacheMiss = errors.New("plan: cache miss")

// Cache is a content-addressed measurement cache: an always-on in-memory
// map, optionally backed by a directory holding one JSON file per key.
// Safe for concurrent use.
//
// Concurrency contract: the mutex guards only the in-memory state and is
// never held across disk I/O or a Derive build — executor workers at
// -parallel N must not serialize on each other's cache reads. Cold disk
// reads of the same key are collapsed by a per-key singleflight group
// instead, so a read stampede costs one os.ReadFile, and concurrent Puts
// write distinct temp files before atomically renaming into place.
type Cache struct {
	mu  sync.Mutex // guards mem, memo and epoch — never held across disk I/O
	mem map[string]entry
	// memo holds values derived from the entries (see Derive). epoch
	// counts the events that can change such a value: an in-memory entry
	// replaced by a different one, and Reset.
	memo  *lru.Cache[string, derived]
	epoch uint64
	dir   string
	// disk collapses concurrent cold reads of one key into a single
	// os.ReadFile (see Get).
	disk singleflight.Group[string, entry]
	// readFile replaces os.ReadFile in tests that count or block disk
	// reads; nil means the real thing.
	readFile func(path string) ([]byte, error)
}

// NewCache returns an in-memory cache.
func NewCache() *Cache {
	return &Cache{mem: make(map[string]entry), memo: lru.New[string, derived](memoCap, nil)}
}

// NewDirCache returns a cache persisted under dir (created if missing):
// every Put writes a JSON file, and a Get that misses memory falls back
// to disk — so a cache directory outlives the process and a later run
// (or couple -from-cache) can reuse the whole campaign.
func NewDirCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("plan: cache dir: %w", err)
	}
	c := NewCache()
	c.dir = dir
	return c, nil
}

// Dir returns the persistence directory ("" for in-memory caches).
func (c *Cache) Dir() string { return c.dir }

// Get returns the cached result for the job, consulting memory first and
// then the directory. Corrupt or mismatched disk entries are misses.
func (c *Cache) Get(j Job) (Result, bool) {
	return c.GetCtx(context.Background(), j)
}

// GetCtx is Get with request-trace attribution: when the context carries
// an obs request span and the lookup leaves memory, the disk read is
// recorded as a "cache.disk" child span with the key and its hit/miss
// outcome. Memory hits stay span-free — they are the warm path and cost
// nothing to attribute at the layer above (the engine's cache.load span
// already covers them).
//
//kcvet:hotpath one call per job of every study that is not already memoised
func (c *Cache) GetCtx(ctx context.Context, j Job) (Result, bool) {
	canonical := j.Canonical()
	key := keyOf(canonical)
	c.mu.Lock()
	e, ok := c.mem[key]
	c.mu.Unlock()
	if ok {
		if e.Canonical != canonical {
			return Result{}, false
		}
		return e.Result, true
	}
	if c.dir == "" {
		return Result{}, false
	}
	sp, _ := obs.StartSpan(ctx, "cache.disk", key)
	// Cold read: one flight per key, so N concurrent Gets of the same
	// uncached job cost a single disk read; Gets of distinct keys
	// proceed fully in parallel.
	e, err, _ := c.disk.Do(key, func() (entry, error) {
		// A Put (or another flight's fill) may have landed while this
		// caller queued; memory wins over disk.
		c.mu.Lock()
		e, ok := c.mem[key]
		c.mu.Unlock()
		if ok {
			return e, nil
		}
		data, err := c.read(c.path(key))
		if err != nil {
			return entry{}, errCacheMiss
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Canonical != canonical {
			// Never memoize a corrupt or mismatched file: it must stay
			// a miss, not poison the in-memory map.
			return entry{}, errCacheMiss
		}
		// Memory still wins if a Put landed during the read: replacing
		// its entry here would change a value without moving the epoch.
		c.mu.Lock()
		if cur, ok := c.mem[key]; ok {
			e = cur
		} else {
			c.mem[key] = e
		}
		c.mu.Unlock()
		return e, nil
	})
	if err != nil || e.Canonical != canonical {
		sp.SetDetail(key + " miss")
		sp.End()
		return Result{}, false
	}
	sp.SetDetail(key + " hit")
	sp.End()
	return e.Result, true
}

// Put stores the job's result, persisting it when the cache has a
// directory. The in-memory store always succeeds; only disk errors are
// returned (the caller may treat them as non-fatal — the measurement
// itself is done).
func (c *Cache) Put(j Job, r Result) error {
	e := entry{Canonical: j.Canonical(), Result: r}
	key := keyOf(e.Canonical)
	c.mu.Lock()
	// Only an overwrite that changes something moves the epoch (see
	// Derive). DeepEqual, so a field added to Result is compared too.
	if old, ok := c.mem[key]; ok && !reflect.DeepEqual(old, e) {
		c.epoch++
	}
	c.mem[key] = e
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("plan: cache encode: %w", err)
	}
	// Atomic write outside the lock: each writer fills its own temp file
	// and renames it into place, so a reader never sees a half-written
	// entry and concurrent Puts of one key never interleave bytes.
	f, err := os.CreateTemp(c.dir, key+".*.tmp")
	if err != nil {
		return fmt.Errorf("plan: cache write: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("plan: cache write: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("plan: cache write: %w", err)
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("plan: cache write: %w", err)
	}
	if err := os.Rename(tmp, c.path(key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("plan: cache write: %w", err)
	}
	return nil
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Reset drops the in-memory entries and everything derived from them.
// Directory entries are kept — Reset forgets, it does not delete.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem = make(map[string]entry)
	// A fresh memo frees what was derived; the epoch also kills whatever a
	// build still in flight is about to store.
	c.memo = lru.New[string, derived](memoCap, nil)
	c.epoch++
}

// Derive memoises a value computed from the cache's entries: it returns
// the value stored under key, or calls build, stores what it returns and
// returns that. key must name everything build reads — which jobs it
// looks up and every parameter of what it computes from them — and the
// value is shared by every later caller, so it must not be written to.
//
// A stored value is served only while the epoch it was built in is still
// current. The epoch is read before build starts and moves when Put
// replaces an in-memory entry with a different one and on Reset, so a
// value built from entries that have since changed — even one whose build
// raced the change — is never served again. A Put of a new job moves
// nothing: build must fail when a job it needs is missing (as a from-cache
// study does), so a stored value read only jobs that were already in
// memory, and a job that was not cannot be one of them. A failed build
// stores nothing and is retried by the next caller.
//
// The mutex is not held while build runs; concurrent first callers of one
// key each build, and the last store wins. The memo keeps the memoCap
// most recently used values.
//
//kcvet:hotpath a memo hit is all the cache work a warm query does
func (c *Cache) Derive(key string, build func() (any, error)) (any, error) {
	c.mu.Lock()
	d, ok := c.memo.Get(key)
	epoch := c.epoch
	c.mu.Unlock()
	if ok && d.epoch == epoch {
		return d.val, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.memo.Put(key, derived{epoch: epoch, val: v})
	c.mu.Unlock()
	return v, nil
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// SetReadFile replaces the function cold disk reads go through
// (os.ReadFile when nil). The serving layer chains fault injection and
// a circuit breaker in front of the real read; tests count or block
// reads. A failing read — injected, broken disk, or breaker fail-fast —
// is a cache miss, never a wrong result. Install before the cache is
// shared across goroutines: the field is read without synchronization
// on the hot path.
func (c *Cache) SetReadFile(fn func(path string) ([]byte, error)) {
	c.readFile = fn
}

// read goes through the installed read function when one is set.
func (c *Cache) read(path string) ([]byte, error) {
	if c.readFile != nil {
		return c.readFile(path)
	}
	return os.ReadFile(path)
}
