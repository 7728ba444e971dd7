package obs

import (
	"math"
	"sort"
	"sync"
)

// WindowHistogram is a sliding-window quantile estimator: a fixed-
// capacity ring of the most recent observations, from which exact
// quantiles over the window are computed on demand. The cumulative
// Histogram answers "what has this process ever seen" with power-of-two
// resolution; the window answers the SLO question — "what are p50/p99/
// p999 right now" — with exact values over the recent past.
//
// Observe is two index operations under a mutex; Quantiles copies and
// sorts the window (call it at scrape time, not per request). Safe for
// concurrent use.
type WindowHistogram struct {
	mu  sync.Mutex
	buf []int64
	n   int // observations held (== len(buf) once the ring has wrapped)
	i   int // next write position
}

// DefaultWindowCap holds enough observations for a meaningful p999.
const DefaultWindowCap = 2048

// NewWindowHistogram returns a window over the most recent cap
// observations; cap below 1 takes DefaultWindowCap.
func NewWindowHistogram(cap int) *WindowHistogram {
	if cap < 1 {
		cap = DefaultWindowCap
	}
	return &WindowHistogram{buf: make([]int64, cap)}
}

// Observe records one value, evicting the oldest once the window is full.
func (w *WindowHistogram) Observe(v int64) {
	w.mu.Lock()
	w.buf[w.i] = v
	w.i = (w.i + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// Len returns the number of observations currently in the window.
func (w *WindowHistogram) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Quantiles returns the exact qth quantiles (0 <= q <= 1, nearest-rank:
// the ⌈q·n⌉-th smallest of n values, the smallest for q = 0) over the
// current window contents, one per requested q, and the window population
// they were computed over. An empty window returns zeros.
func (w *WindowHistogram) Quantiles(qs ...float64) ([]int64, int) {
	w.mu.Lock()
	vals := append([]int64(nil), w.buf[:w.n]...)
	w.mu.Unlock()
	out := make([]int64, len(qs))
	if len(vals) == 0 {
		return out, 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		idx := int(math.Ceil(q*float64(len(vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		out[i] = vals[idx]
	}
	return out, len(vals)
}
