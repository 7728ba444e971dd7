package guard

import (
	"sync"

	"repro/internal/lru"
)

// StaleCache backs the serving degradation ladder: every healthy full
// answer is remembered here (bounded LRU), and when the full path fails
// — deadline blown, breaker open, disk fault — the serving layer can
// fall back to the stale copy for the exact key, or to a "nearby" answer
// from the same workload family (same bench/class/procs/grid, different
// chain or trip shape), tagged with degraded provenance instead of
// shedding outright.
//
// Values are opaque (any) so guard stays below predict in the import
// graph; the serving layer stores its answer type, a prediction marked
// when it is a hot peer replica. On a clustered node this is the one
// store of answers: the replicas share its bound and its LRU order.
type StaleCache struct {
	mu sync.Mutex
	// lru holds the answers by exact key.
	lru *lru.Cache[string, staleEntry]
	// family maps family key → the most recently stored exact key in
	// that family, for "nearby" fallback.
	family map[string]string
}

type staleEntry struct {
	family string
	val    any
}

// Degradation modes a Get can report.
const (
	// ModeStale is an exact-key hit on a previously served answer.
	ModeStale = "stale"
	// ModeStaleNearby is a same-family hit (different chain/trip shape).
	ModeStaleNearby = "stale-nearby"
)

// NewStaleCache builds a cache retaining at most cap answers.
func NewStaleCache(cap int) *StaleCache {
	if cap <= 0 {
		cap = 64
	}
	c := &StaleCache{family: make(map[string]string)}
	// An evicted answer takes with it any family pointer that named it.
	c.lru = lru.New(cap, func(key string, e staleEntry) {
		if e.family != "" && c.family[e.family] == key {
			delete(c.family, e.family)
		}
	})
	return c
}

// Put remembers a healthy answer under its exact key and family key.
// Nil-safe.
func (c *StaleCache) Put(key, familyKey string, val any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Put(key, staleEntry{family: familyKey, val: val})
	if familyKey != "" {
		c.family[familyKey] = key
	}
}

// Get retrieves a fallback answer: the exact key when present
// (ModeStale), else the family's freshest answer (ModeStaleNearby).
// Hits refresh recency. Nil-safe.
func (c *StaleCache) Get(key, familyKey string) (val any, mode string, ok bool) {
	if c == nil {
		return nil, "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, hit := c.lru.Get(key); hit {
		return e.val, ModeStale, true
	}
	if familyKey == "" {
		return nil, "", false
	}
	near, hit := c.family[familyKey]
	if !hit {
		return nil, "", false
	}
	e, live := c.lru.Get(near)
	if !live {
		// The family pointer outlived its entry's eviction; drop it.
		delete(c.family, familyKey)
		return nil, "", false
	}
	return e.val, ModeStaleNearby, true
}
