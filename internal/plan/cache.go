package plan

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"

	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/singleflight"
	"repro/internal/timing"
)

// Result is one job's measured outcome — the value the cache stores and
// the executor returns: the record timing.Protocol.Time makes, so a
// measurement reaches the log as it left the timed region.
type Result = timing.Result

// entry is the persisted form of one cache slot. The canonical pre-image
// rides along so a disk entry can be audited and so a key truncation
// collision (or a stale record from an older key scheme) reads as a miss,
// never as a wrong result.
type entry struct {
	Canonical string `json:"canonical"`
	Result    Result `json:"result"`
}

// logName is the one file a cache directory holds: every Put appends a
// record "<key> <entry as compact JSON>\n" to it, and nothing is ever
// rewritten. The last complete record of a key is its value.
const logName = "measurements.log"

// keyLen is the length of a job key: keyOf's 24 hex digits.
const keyLen = 24

// tornMark ends a line whose writer did not. No JSON value ends in '!', and
// scanLog never takes a line that does for a record, so a record cut
// anywhere — even just before its newline — is not its key's value for any
// reader: the key keeps its last complete record, whether it is looked up
// before or after the marked line is scanned.
const tornMark = "!\n"

// span locates the JSON of one record in the log.
type span struct {
	off int64
	n   int
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

// errCacheMiss marks a disk lookup that found nothing servable (no
// record, corrupt JSON, canonical mismatch). It is internal to Get: callers
// only ever see the boolean miss.
var errCacheMiss = errors.New("plan: cache miss")

// Cache is a content-addressed measurement cache: an always-on in-memory
// map, optionally backed by a directory holding one append-only log.
// Safe for concurrent use, and several caches — in one process or many —
// may share a directory.
//
// Concurrency contract: the mutex guards only the in-memory state and is
// never held across disk I/O or a Derive build — executor workers at
// -parallel N must not serialize on each other's cache reads. Cold disk
// reads of the same job are collapsed by a per-job singleflight group
// instead, so a read stampede costs one read. A Put is one write(2) of
// one whole record on an O_APPEND descriptor: the kernel places each
// write at the end of the file under the inode's lock, so records of
// concurrent writers — goroutines or processes — never interleave, and a
// reader indexes a record only once its newline is there.
type Cache struct {
	mu sync.Mutex // guards mem, memo, epoch, index and scanned — never held across disk I/O
	// mem holds the results this cache knows, by canonical string: a
	// lookup renders the job's and hashes nothing.
	mem map[string]Result
	// memo holds values derived from the entries (see Derive). epoch
	// counts the events that can change such a value: an in-memory entry
	// replaced by a different one, and Reset.
	memo  *lru.Cache[string, derived]
	epoch uint64
	// log is the directory's measurement log, nil for an in-memory cache.
	log *os.File
	// index maps a key to its last complete record in log[:scanned]; what
	// lies beyond scanned — this cache's own Puts, which mem answers, and
	// other writers' — is indexed when a lookup misses (indexTail).
	index   map[string]span
	scanned int64
	// disk collapses concurrent cold reads of one job into a single
	// read (see Get); it is keyed by canonical string, like mem.
	disk singleflight.Group[string, Result]
	// guard, when set, is called around every disk lookup (SetReadGuard).
	guard func(read func() error) error
}

// NewCache returns an in-memory cache.
func NewCache() *Cache {
	return &Cache{mem: make(map[string]Result), memo: lru.New[string, derived](memoCap, nil)}
}

// NewDirCache returns a cache persisted under dir (created if missing):
// every Put appends a record to the directory's log, and a Get that
// misses memory falls back to it — so a cache directory outlives the
// process and a later run (or couple -from-cache) can reuse the whole
// campaign. Opening reads the log once to index it; entries a release
// before the log left as one <key>.json each are moved into it first.
func NewDirCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("plan: cache dir: %w", err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		// A directory this process may only read still serves what it
		// holds; every Put then reports its failed append.
		ro, roErr := os.Open(path)
		if roErr != nil {
			return nil, fmt.Errorf("plan: cache dir: %w", err)
		}
		f = ro
	}
	c := NewCache()
	c.log, c.index = f, make(map[string]span)
	if err := c.adoptKeyFiles(dir); err != nil {
		f.Close()
		return nil, err
	}
	if err := c.indexTail(); err != nil {
		f.Close()
		return nil, fmt.Errorf("plan: cache dir: %w", err)
	}
	// What is left beyond scanned is a record some writer did not finish
	// (a full disk, a kill mid-write). End that line, so that the next
	// append starts its own. If the writer is alive after all and the rest
	// of its record lands first, the mark is a line of its own.
	if fi, err := f.Stat(); err == nil && fi.Size() > c.scanned {
		f.Write([]byte(tornMark))
	}
	return c, nil
}

// Close releases the log's descriptor. Everything Put returned nil for is
// already in the file — there is no buffer to flush, and no fsync either:
// as before the log, a record survives the process, not a power cut.
// After Close memory hits still serve, a disk lookup is a miss and a Put
// returns an error. A cache that is never closed gives its descriptor back
// when it is collected.
func (c *Cache) Close() error {
	if c.log == nil {
		return nil
	}
	return c.log.Close()
}

// adoptKeyFiles moves dir, if it was written before the log, into it: every
// <key>.json that decodes and whose canonical hashes to its name is
// appended as a record, then removed. A file that does not is left where
// it is. Two processes opening at once may both append a file's entry;
// the records are equal and the second Remove finds nothing.
func (c *Cache) adoptKeyFiles(dir string) error {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return fmt.Errorf("plan: cache dir: %w", err)
	}
	for _, name := range names {
		key := strings.TrimSuffix(filepath.Base(name), ".json")
		data, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		var e entry
		if json.Unmarshal(data, &e) != nil || keyOf(e.Canonical) != key {
			continue
		}
		if err := c.append(key, e); err != nil {
			return fmt.Errorf("plan: cache dir: adopt %s: %w", filepath.Base(name), err)
		}
		os.Remove(name)
	}
	return nil
}

// Get returns the cached result for the job, consulting memory first and
// then the directory's log. Corrupt or mismatched records are misses.
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
	// A memory hit is a map lookup by the canonical string, rendered on
	// the stack: it allocates nothing and hashes nothing.
	var buf [canonicalBuf]byte
	cb := j.appendCanonical(buf[:0])
	c.mu.Lock()
	r, ok := c.mem[string(cb)]
	c.mu.Unlock()
	if ok {
		return r, true
	}
	if c.log == nil {
		return Result{}, false
	}
	canonical, key := string(cb), keyOf(cb)
	sp, _ := obs.StartSpan(ctx, "cache.disk", key)
	// Cold read: one flight per job, so N concurrent Gets of the same
	// uncached job cost a single disk read; Gets of distinct jobs
	// proceed fully in parallel.
	r, err, _ := c.disk.Do(canonical, func() (Result, error) {
		// A Put (or another flight's fill) may have landed while this
		// caller queued; memory wins over disk.
		c.mu.Lock()
		r, ok := c.mem[canonical]
		c.mu.Unlock()
		if ok {
			return r, nil
		}
		var data []byte
		read := func() (err error) {
			data, err = c.readLog(key)
			return err
		}
		var err error
		if c.guard != nil {
			err = c.guard(read)
		} else {
			err = read()
		}
		if err != nil {
			return Result{}, errCacheMiss
		}
		e, ok := decodeEntry(data, canonical)
		if !ok {
			// Never memoize a corrupt or mismatched record: it must stay
			// a miss, not poison the in-memory map.
			return Result{}, errCacheMiss
		}
		// Memory still wins if a Put landed during the read: replacing
		// its entry here would change a value without moving the epoch.
		c.mu.Lock()
		if cur, ok := c.mem[canonical]; ok {
			e.Result = cur
		} else {
			c.mem[canonical] = e.Result
		}
		c.mu.Unlock()
		return e.Result, nil
	})
	if sp != (obs.SpanRef{}) { // untraced, there is no detail to render
		if err == nil {
			sp.SetDetail(key + " hit")
		} else {
			sp.SetDetail(key + " miss")
		}
		sp.End()
	}
	if err != nil {
		return Result{}, false
	}
	return r, true
}

// Put stores the job's result, appending it to the log when the cache
// has a directory. The in-memory store always succeeds; only disk errors
// are returned (the caller may treat them as non-fatal — the measurement
// itself is done).
func (c *Cache) Put(j Job, r Result) error {
	canonical := j.Canonical()
	c.mu.Lock()
	// Only an overwrite that changes something moves the epoch (see
	// Derive). DeepEqual, so a field added to Result is compared too.
	if old, ok := c.mem[canonical]; ok && !reflect.DeepEqual(old, r) {
		c.epoch++
	}
	c.mem[canonical] = r
	c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	if err := c.append(keyOf(canonical), entry{Canonical: canonical, Result: r}); err != nil {
		return fmt.Errorf("plan: cache write: %w", err)
	}
	return nil
}

// append encodes one record and writes it with one write(2). This cache
// does not index it: mem answers for what it Put itself, and a lookup that
// gets past mem (after Reset) finds the record in the tail like any other
// writer's.
//
//kcvet:hotpath the whole disk cost of a Put: one per measured job, between two worlds of a cold study
func (c *Cache) append(key string, e entry) error {
	var line bytes.Buffer
	line.WriteString(key)
	line.WriteByte(' ')
	if err := json.NewEncoder(&line).Encode(e); err != nil { // compact, and ends the line
		return err
	}
	if n, err := c.log.Write(line.Bytes()); err != nil {
		if n > 0 {
			// Part of the record is in the file. End its line, so that
			// the next record is not read as the rest of this one.
			c.log.Write([]byte(tornMark))
		}
		return err
	}
	return nil
}

// record is one line of the log as a scan found it.
type record struct {
	key string
	span
}

// scanLog returns the complete records in data, a stretch of the log that
// starts at offset base on a record boundary, in file order, and the
// length of the complete lines: an unterminated tail is left for the scan
// that finds its newline. A line that is not "<24 hex digits> <bytes>" is
// skipped, and so is one that ends in tornMark's '!'; whether the bytes
// are an entry is the reader's question.
func scanLog(data []byte, base int64) (recs []record, used int) {
	for {
		nl := bytes.IndexByte(data[used:], '\n')
		if nl < 0 {
			return recs, used
		}
		line := data[used : used+nl]
		if len(line) > keyLen+1 && line[keyLen] == ' ' && isKey(line[:keyLen]) && line[len(line)-1] != tornMark[0] {
			recs = append(recs, record{string(line[:keyLen]), span{off: base + int64(used+keyLen+1), n: len(line) - keyLen - 1}})
		}
		used += nl + 1
	}
}

// isKey reports whether b is all lower-case hex digits, as keyOf's are.
func isKey(b []byte) bool {
	for _, ch := range b {
		if (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return false
		}
	}
	return true
}

// indexTail indexes what was appended to the log since the last scan, by
// this cache or any other writer. Concurrent calls may scan the same
// stretch; merging is idempotent and ordered by offset.
func (c *Cache) indexTail() error {
	c.mu.Lock()
	from := c.scanned
	c.mu.Unlock()
	fi, err := c.log.Stat()
	if err != nil {
		return err
	}
	if fi.Size() <= from {
		return nil
	}
	buf := make([]byte, fi.Size()-from)
	n, err := c.log.ReadAt(buf, from)
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	recs, used := scanLog(buf[:n], from)
	c.mu.Lock()
	for _, r := range recs {
		if cur, ok := c.index[r.key]; !ok || cur.off < r.off {
			c.index[r.key] = r.span
		}
	}
	if end := from + int64(used); end > c.scanned {
		c.scanned = end
	}
	c.mu.Unlock()
	return nil
}

// indexed looks key up in the index.
func (c *Cache) indexed(key string) (span, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp, ok := c.index[key]
	return sp, ok
}

// readLog returns the JSON of key's last record: from the index, or after
// one fstat and a scan of whatever the log grew by. fs.ErrNotExist means
// the log holds no record of the key; any other error is the disk's.
func (c *Cache) readLog(key string) ([]byte, error) {
	sp, ok := c.indexed(key)
	if !ok {
		if err := c.indexTail(); err != nil {
			return nil, err
		}
		if sp, ok = c.indexed(key); !ok {
			return nil, fs.ErrNotExist
		}
	}
	buf := make([]byte, sp.n)
	if _, err := c.log.ReadAt(buf, sp.off); err != nil {
		if errors.Is(err, io.EOF) {
			// Someone cut the log short under the index.
			return nil, fs.ErrNotExist
		}
		return nil, err
	}
	return buf, nil
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Reset drops the in-memory entries and everything derived from them.
// The log and its index are kept — Reset forgets, it does not delete.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem = make(map[string]Result)
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
	v, epoch, ok := c.memoised(key)
	if ok {
		return v, nil
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

// Peek returns what Derive would return for key without building: the
// value stored under key if it was built in the current epoch, and false
// otherwise. It never builds, never reads disk and leaves the memo as it
// finds it.
//
//kcvet:hotpath a memoised answer is one Peek on the request's own goroutine
func (c *Cache) Peek(key string) (any, bool) {
	v, _, ok := c.memoised(key)
	return v, ok
}

// memoised looks key up in the memo. It returns the current epoch, and
// the value stored under key if that was built in this epoch.
func (c *Cache) memoised(key string) (any, uint64, bool) {
	c.mu.Lock()
	d, ok := c.memo.Get(key)
	epoch := c.epoch
	c.mu.Unlock()
	if !ok || d.epoch != epoch {
		return nil, epoch, false
	}
	return d.val, epoch, true
}

// SetReadGuard installs fn around every disk lookup: fn decides whether
// and when to call read, which does the lookup's I/O, and returns read's
// error or its own. The serving layer puts fault injection and a circuit
// breaker there; tests count or block lookups. read returns
// fs.ErrNotExist when the log simply holds no record of the key — the
// normal cold miss, not a failure of the disk. Any error from fn —
// injected, broken disk, or breaker fail-fast — is a cache miss, never a
// wrong result. Install before the cache is shared across goroutines: the
// field is read without synchronization on the hot path.
func (c *Cache) SetReadGuard(fn func(read func() error) error) {
	c.guard = fn
}
