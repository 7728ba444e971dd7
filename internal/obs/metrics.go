// Package obs is the observability substrate of the reproduction: a
// zero-dependency metrics layer (counters, gauges, histograms with
// exponential buckets) behind a Registry whose snapshots are emitted in
// deterministic sorted order, one span type and one recorder (Trace) for
// everything the repository times — kernels, MPI operations, harness and
// request stages — and a run-manifest writer so every measurement run
// can describe itself in a machine-readable way.
//
// The paper's methodology is measurement-first — coupling values C_S are
// only as trustworthy as the instrumentation behind P_S and P_k — and this
// package is where that instrumentation reports. internal/mpi feeds it
// per-rank communication metrics and spans, internal/harness feeds it
// measurement provenance, and cmd/kcreport renders its snapshots.
//
// Everything is safe for concurrent use by many ranks: counters, gauges
// and histogram buckets are atomics, and registration is mutex-guarded.
// Nothing in this package reads the wall clock — time always enters
// through a timing.Clock or from the caller — so the kcvet determinism
// analyzer holds over it.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing sum. The zero value is ready.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by d (d must be non-negative).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can move both ways. The zero value is ready.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of exponential histogram buckets: bucket 0
// holds the value 0, bucket i (i >= 1) holds values in [2^(i-1), 2^i).
// 64 value buckets cover the whole non-negative int64 range.
const histBuckets = 65

// Histogram accumulates a distribution of non-negative int64 observations
// (nanoseconds, bytes, queue depths) into power-of-two buckets, tracking
// count, sum, min and max exactly. The zero value is ready and all methods
// are safe for concurrent use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0; guarded by initOnce
	max     atomic.Int64
	minInit sync.Once
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.minInit.Do(func() { h.min.Store(math.MaxInt64) })
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Registry holds named metrics and produces deterministic snapshots.
// Metric handles are created on first use and cached; hot paths should
// hold the returned pointer rather than re-resolving the name.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterSnapshot is one counter's state at snapshot time.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's state at snapshot time.
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Bucket is one non-empty exponential histogram bucket: Count values fell
// in [Lo, Hi).
type Bucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is one histogram's state at snapshot time. Only
// non-empty buckets are included.
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the mean observation, or 0 when the histogram is empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry's metrics, each kind
// sorted by name so identical states serialize identically.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns the named counter snapshot, if present.
func (s Snapshot) Counter(name string) (CounterSnapshot, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c, true
		}
	}
	return CounterSnapshot{}, false
}

// Histogram returns the named histogram snapshot, if present.
func (s Snapshot) Histogram(name string) (HistogramSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}

// Snapshot captures every registered metric in sorted-name order. Metrics
// observed concurrently with the snapshot land in it or in the next one;
// each individual metric is read atomically.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()

	var s Snapshot
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: r.counters[name].Value()})
	}

	names = names[:0]
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: r.gauges[name].Value()})
	}

	names = names[:0]
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Histograms = append(s.Histograms, snapshotHistogram(name, r.hists[name]))
	}
	return s
}

func snapshotHistogram(name string, h *Histogram) HistogramSnapshot {
	hs := HistogramSnapshot{
		Name:  name,
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if hs.Count > 0 {
		hs.Min = h.min.Load()
	}
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		b := Bucket{Count: n}
		if i == 0 {
			b.Lo, b.Hi = 0, 1
		} else {
			b.Lo = 1 << (i - 1)
			if i == 64 {
				b.Hi = math.MaxInt64
			} else {
				b.Hi = 1 << i
			}
		}
		hs.Buckets = append(hs.Buckets, b)
	}
	return hs
}
