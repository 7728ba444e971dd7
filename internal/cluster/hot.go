package cluster

import (
	"sync"
	"time"

	"repro/internal/timing"
)

// hotWindow is the hot-key tracking window.
const hotWindow = 10 * time.Second

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
