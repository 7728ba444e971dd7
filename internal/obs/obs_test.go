package obs

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/timing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("counter = %d, want 42", c.Value())
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 3, 4, 1024, -5} {
		h.Observe(v)
	}
	s := snapshotHistogram("h", &h)
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Sum != 0+1+1+3+4+1024+0 {
		t.Errorf("sum = %d", s.Sum)
	}
	if s.Min != 0 || s.Max != 1024 {
		t.Errorf("min/max = %d/%d", s.Min, s.Max)
	}
	// Expected buckets: [0,1):2 (the 0 and the clamped -5), [1,2):2,
	// [2,4):1, [4,8):1, [1024,2048):1.
	want := []Bucket{
		{Lo: 0, Hi: 1, Count: 2},
		{Lo: 1, Hi: 2, Count: 2},
		{Lo: 2, Hi: 4, Count: 1},
		{Lo: 4, Hi: 8, Count: 1},
		{Lo: 1024, Hi: 2048, Count: 1},
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Errorf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
	if got := s.Mean(); math.Abs(got-1033.0/7) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	s := snapshotHistogram("h", &h)
	if s.Count != 8000 {
		t.Errorf("count = %d, want 8000", s.Count)
	}
	if s.Sum != 8*999*1000/2 {
		t.Errorf("sum = %d", s.Sum)
	}
}

// TestSnapshotDeterministicOrder pins the registry contract the kcvet
// determinism rules rely on: two snapshots of registries populated in
// different orders serialize byte-identically.
func TestSnapshotDeterministicOrder(t *testing.T) {
	names := []string{"z.last", "a.first", "m.middle", "b.second"}
	r1, r2 := NewRegistry(), NewRegistry()
	for _, n := range names {
		r1.Counter(n).Inc()
		r1.Histogram("h." + n).Observe(3)
	}
	for i := len(names) - 1; i >= 0; i-- {
		r2.Counter(names[i]).Inc()
		r2.Histogram("h." + names[i]).Observe(3)
	}
	j1, err := json.Marshal(r1.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(r2.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("snapshot order depends on registration order:\n%s\n%s", j1, j2)
	}
	s := r1.Snapshot()
	if !sort.SliceIsSorted(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name }) {
		t.Error("counters not sorted by name")
	}
	if !sort.SliceIsSorted(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name }) {
		t.Error("histograms not sorted by name")
	}
}

func TestRegistryHandleIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("same name must return the same counter")
	}
	if r.Histogram("x") != r.Histogram("x") {
		t.Error("same name must return the same histogram")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("same name must return the same gauge")
	}
}

func TestSnapshotLookups(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.Histogram("h").Observe(9)
	s := r.Snapshot()
	if c, ok := s.Counter("c"); !ok || c.Value != 5 {
		t.Errorf("Counter lookup = %+v, %v", c, ok)
	}
	if h, ok := s.Histogram("h"); !ok || h.Sum != 9 {
		t.Errorf("Histogram lookup = %+v, %v", h, ok)
	}
	if _, ok := s.Counter("missing"); ok {
		t.Error("missing counter reported present")
	}
}

func TestTraceRecord(t *testing.T) {
	fc := &timing.FakeClock{T: time.Unix(100, 0)}
	r := NewTrace(fc)
	start := r.Now().Add(3 * time.Millisecond)
	r.Record(start, Span{Track: TrackMPI, Rank: 1, Name: "recv", Detail: "src=0 tag=7", Bytes: 80,
		Elapsed: 2 * time.Millisecond, Wait: time.Millisecond, Parent: 7})
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	s := spans[0]
	if s.Rank != 1 || s.Name != "recv" || s.Bytes != 80 || s.Track != TrackMPI {
		t.Errorf("span = %+v", s)
	}
	if s.Start != 3*time.Millisecond {
		t.Errorf("start = %v, want 3ms after epoch", s.Start)
	}
	if s.Wait != time.Millisecond || s.Elapsed != 2*time.Millisecond {
		t.Errorf("wait/elapsed = %v/%v", s.Wait, s.Elapsed)
	}
	if s.Parent != -1 {
		t.Errorf("parent = %d, want -1: recorded spans are top level", s.Parent)
	}
	// Spans() must copy.
	spans[0].Name = "mutated"
	if r.Spans()[0].Name != "recv" {
		t.Error("Spans returned aliased storage")
	}
}

func TestTraceRecordConcurrent(t *testing.T) {
	r := NewTrace(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Record(r.Now(), Span{Rank: g, Name: "op", Bytes: 8, Elapsed: time.Microsecond})
			}
		}()
	}
	wg.Wait()
	if len(r.Spans()) != 1600 {
		t.Errorf("recorded %d spans, want 1600", len(r.Spans()))
	}
}
