package cluster

import (
	"sync"
	"time"

	"repro/internal/lru"
	"repro/internal/predict"
	"repro/internal/timing"
)

const (
	// hotWindow is the hot-key tracking window.
	hotWindow = 10 * time.Second
	// replicaCap bounds the local replica store.
	replicaCap = 512
)

// hotTracker decides which foreign-owned keys have earned a local
// replica: a key whose request rate at THIS node crosses the threshold
// within one sliding window is hot. Tracking is windowed rather than
// cumulative so a key that was hot yesterday does not stay hot forever —
// replication follows the current workload, which is what makes a
// zipf-head key cheap everywhere while the long tail stays owner-only.
type hotTracker struct {
	mu        sync.Mutex
	clock     timing.Clock
	threshold int
	// counts maps key → its request count in the current window.
	counts map[string]int
	// windowStart is when the current window opened; on expiry every
	// count resets (coarse but O(1) per request, no per-key timers).
	windowStart time.Time
}

func newHotTracker(threshold int, clock timing.Clock) *hotTracker {
	if threshold <= 0 {
		return nil // replication disabled
	}
	if clock == nil {
		clock = timing.WallClock
	}
	return &hotTracker{
		clock:       clock,
		threshold:   threshold,
		counts:      make(map[string]int),
		windowStart: clock.Now(),
	}
}

// note records one request for key and reports whether the key is now
// hot (at or past the threshold within the current window). Nil-safe:
// a nil tracker (replication disabled) reports nothing hot.
func (h *hotTracker) note(key string) bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.clock.Now()
	if now.Sub(h.windowStart) > hotWindow {
		h.counts = make(map[string]int)
		h.windowStart = now
	}
	h.counts[key]++
	return h.counts[key] >= h.threshold
}

// replicaCache is the bounded local store of hot foreign-owned answers:
// a plain LRU keyed on the plan key. Predictions are immutable once
// resolved (the whole premise of content-addressed serving), so there is
// no TTL — an entry leaves when capacity pushes it out or the process
// restarts.
type replicaCache struct {
	mu  sync.Mutex
	lru *lru.Cache[string, predict.Prediction]
}

func newReplicaCache(cap int) *replicaCache {
	return &replicaCache{lru: lru.New[string, predict.Prediction](cap, nil)}
}

// get returns the replicated answer for key, refreshing recency.
// Nil-safe.
func (c *replicaCache) get(key string) (predict.Prediction, bool) {
	if c == nil {
		return predict.Prediction{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(key)
}

// put stores a replicated answer, evicting the least recently used entry
// past capacity. Nil-safe.
func (c *replicaCache) put(key string, pr predict.Prediction) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Put(key, pr)
}
