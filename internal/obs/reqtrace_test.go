package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/timing"
)

// fakeClock returns a deterministic clock advancing stepNs per reading.
func fakeClock(step time.Duration) *timing.FakeClock {
	return &timing.FakeClock{T: time.Unix(0, 0), Steps: []time.Duration{step}}
}

// TestNilTracerChain: the whole disabled-tracing chain — nil tracer, nil
// trace, nil spans, span-free contexts — must be inert, not panic.
func TestNilTracerChain(t *testing.T) {
	var rt *RequestTracer
	tr := rt.Start("predict")
	if tr != nil {
		t.Fatal("nil tracer minted a trace")
	}
	tr.Annotate("k", "v")
	if _, ok := tr.Attr("k"); ok {
		t.Error("nil trace returned an attr")
	}
	rt.Finish(tr, 200, "")
	if err := rt.Flush(); err != nil {
		t.Errorf("nil tracer Flush: %v", err)
	}
	if rt.Recorder() != nil {
		t.Error("nil tracer has a recorder")
	}

	ctx := t.Context()
	if got := TraceFrom(ctx); got != nil {
		t.Error("bare context carries a trace")
	}
	sp, ctx2 := StartSpan(ctx, "x", "")
	if sp != (SpanRef{}) {
		t.Fatal("span-free context minted a span")
	}
	if ctx2 != ctx {
		t.Error("StartSpan on a span-free context rebuilt the context")
	}
	sp.End()
	sp.SetDetail("d")
	if sp.StartChild("y", "") != (SpanRef{}) {
		t.Error("zero span minted a child")
	}
	if sp.Span() != (Span{}) {
		t.Error("zero span reads back a span")
	}
	var none *Trace
	if none.Root() != (SpanRef{}) || none.Spans() != nil {
		t.Error("nil trace is not inert")
	}
}

// TestTraceIDsDeterministic: IDs come from an atomic sequence with a
// fixed prefix — no wall clock, no randomness — and sort in arrival
// order.
func TestTraceIDsDeterministic(t *testing.T) {
	rt := NewRequestTracer(TracerConfig{Clock: fakeClock(time.Microsecond)})
	want := []string{"t-00000001", "t-00000002", "t-00000003"}
	for i, w := range want {
		tr := rt.Start("predict")
		if tr.ID != w {
			t.Errorf("trace %d: ID = %q, want %q", i, tr.ID, w)
		}
		if tr.Seq != uint64(i+1) {
			t.Errorf("trace %d: Seq = %d, want %d", i, tr.Seq, i+1)
		}
	}
}

// TestSpanTreeTiming: a span tree built against a FakeClock carries
// exact offsets and durations, and the context threads parentage so
// grandchildren nest under the right node.
func TestSpanTreeTiming(t *testing.T) {
	rt := NewRequestTracer(TracerConfig{Clock: fakeClock(time.Millisecond)})
	tr := rt.Start("predict") // epoch reading
	ctx := ContextWithTrace(t.Context(), tr)

	if got := TraceFrom(ctx); got != tr {
		t.Fatal("context lost the trace")
	}
	if got := SpanFrom(ctx); got != tr.Root() {
		t.Fatal("context's current span is not the root")
	}

	parent, pctx := StartSpan(ctx, "outer", "p") // +1ms
	child, _ := StartSpan(pctx, "inner", "c")    // +2ms
	child.End()                                  // +3ms
	parent.End()                                 // +4ms
	rt.Finish(tr, 200, "")                       // root ends at +5ms

	if p := parent.Span(); p.Start != time.Millisecond || p.Elapsed != 3*time.Millisecond {
		t.Errorf("outer: start %v elapsed %v", p.Start, p.Elapsed)
	}
	if c := child.Span(); c.Start != 2*time.Millisecond || c.Elapsed != time.Millisecond {
		t.Errorf("inner: start %v elapsed %v", c.Start, c.Elapsed)
	}
	if tr.Total != 5*time.Millisecond || tr.Status != 200 {
		t.Errorf("trace: total %v status %d", tr.Total, tr.Status)
	}
	// The flat list is the tree: root, then outer under it, then inner
	// under outer, every one a process-level stage span.
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("trace holds %d spans, want 3", len(spans))
	}
	for i, want := range []struct {
		name   string
		parent int
	}{{"predict", -1}, {"outer", 0}, {"inner", 1}} {
		if s := spans[i]; s.Name != want.name || s.Parent != want.parent || s.Rank != -1 || s.Track != TrackStages {
			t.Errorf("span %d = %+v, want %s under %d", i, s, want.name, want.parent)
		}
	}
	if spans[2].Detail != "c" {
		t.Errorf("inner detail = %q", spans[2].Detail)
	}
	if d := DumpTrace(tr).Root; len(d.Children) != 1 || d.Children[0].Name != "outer" ||
		len(d.Children[0].Children) != 1 || d.Children[0].Children[0].Name != "inner" {
		t.Errorf("dumped tree = %+v", d)
	}
}

// TestCampaignTraceHasNoRoot: a trace with no request identity opens its
// stages at top level, beside whatever an observer records into it, all
// against one epoch.
func TestCampaignTraceHasNoRoot(t *testing.T) {
	fc := fakeClock(time.Millisecond)
	tr := NewTrace(fc) // epoch reading
	ctx := ContextWithTrace(t.Context(), tr)
	exec, ectx := StartSpan(ctx, "execute", "jobs=1")                                             // +1ms
	job, _ := StartSpan(ectx, "measure.window", "A|B")                                            // +2ms
	tr.Record(tr.Now(), Span{Track: TrackKernels, Rank: 1, Name: "A", Elapsed: time.Millisecond}) // +3ms
	job.End()                                                                                     // +4ms
	exec.End()                                                                                    // +5ms
	tr.Root().End()
	tr.Root().SetDetail("ignored")

	want := []Span{
		{Name: "execute", Detail: "jobs=1", Rank: -1, Track: TrackStages, Start: time.Millisecond, Elapsed: 4 * time.Millisecond, Parent: -1},
		{Name: "measure.window", Detail: "A|B", Rank: -1, Track: TrackStages, Start: 2 * time.Millisecond, Elapsed: 2 * time.Millisecond, Parent: 0},
		{Name: "A", Rank: 1, Track: TrackKernels, Start: 3 * time.Millisecond, Elapsed: time.Millisecond, Parent: -1},
	}
	got := tr.Spans()
	if len(got) != len(want) {
		t.Fatalf("trace holds %d spans, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if NewTrace(nil).clock != timing.WallClock {
		t.Error("nil clock should fall back to the wall clock")
	}
}

// TestTraceAttrs: annotations keep append order and Attr finds the first
// match.
func TestTraceAttrs(t *testing.T) {
	rt := NewRequestTracer(TracerConfig{Clock: fakeClock(0)})
	tr := rt.Start("predict")
	tr.Annotate("cache", "hit")
	tr.Annotate("singleflight", "leader")
	tr.Annotate("cache", "shadow")
	if got := tr.Attrs(); len(got) != 3 || got[0] != (Attr{"cache", "hit"}) {
		t.Errorf("attrs = %v", got)
	}
	if v, ok := tr.Attr("cache"); !ok || v != "hit" {
		t.Errorf("Attr(cache) = %q %v", v, ok)
	}
	if _, ok := tr.Attr("absent"); ok {
		t.Error("Attr found an absent key")
	}
}

// TestAutoFlushOnSlowAndError: with a flush path configured, a slow or
// errored request writes the dump; a fast clean one does not.
func TestAutoFlushOnSlowAndError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.json")
	rt := NewRequestTracer(TracerConfig{
		Clock:     fakeClock(time.Millisecond),
		Recorder:  NewFlightRecorder(4, 4),
		Slow:      10 * time.Millisecond,
		FlushPath: path,
	})

	// Fast and clean: one clock step (1ms) < Slow — no flush.
	rt.Finish(rt.Start("predict"), 200, "")
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("fast clean request flushed: %v", err)
	}

	// Errored: flushes regardless of duration.
	rt.Finish(rt.Start("predict"), 500, "boom")
	d, err := ReadFlightDumpFile(path)
	if err != nil {
		t.Fatalf("after errored request: %v", err)
	}
	if len(d.Errored) != 1 || d.Errored[0].Err != "boom" {
		t.Fatalf("errored dump = %+v", d)
	}

	// Slow: burn clock readings inside the request so the root span
	// exceeds the threshold.
	os.Remove(path)
	tr := rt.Start("predict")
	for i := 0; i < 20; i++ {
		sp := tr.Root().StartChild("work", "")
		sp.End()
	}
	rt.Finish(tr, 200, "")
	if _, ok := tr.Attr("slow"); !ok {
		t.Error("slow trace not annotated")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("slow request did not flush: %v", err)
	}
}

// TestConcurrentSpansUnderOneParent: executor-style fan-out — many
// goroutines opening and closing children of one span — must be safe
// and lose nothing: not a span, and not an End. The span list leaves the
// trace's inline room and regrows several times under the workers, and
// the parent ends while they are still appending, so an End that wrote into
// a backing array a concurrent append had just outgrown would leave a
// span with Elapsed 0 here. Run with -race and without.
func TestConcurrentSpansUnderOneParent(t *testing.T) {
	rt := NewRequestTracer(TracerConfig{Clock: fakeClock(time.Microsecond)})
	tr := rt.Start("predict")
	ctx := ContextWithTrace(t.Context(), tr)
	parent, pctx := StartSpan(ctx, "execute", "")

	const workers, each = 8, 200
	var wg sync.WaitGroup
	half := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sp, sctx := StartSpan(pctx, "measure", "")
				inner, _ := StartSpan(sctx, "world", "")
				sp.SetDetail("job")
				inner.End()
				sp.End()
				tr.Annotate("k", "v")
				if w == 0 && i == each/2 {
					close(half)
				}
			}
		}(w)
	}
	<-half
	parent.End() // races the workers' appends by design
	wg.Wait()
	rt.Finish(tr, 200, "")

	spans := tr.Spans()
	if want := 2 + 2*workers*each; len(spans) != want {
		t.Fatalf("trace holds %d spans, want %d", len(spans), want)
	}
	if got := len(DumpTrace(tr).Root.Children[0].Children); got != workers*each {
		t.Errorf("parent children = %d, want %d", got, workers*each)
	}
	for i, s := range spans {
		if s.Elapsed <= 0 {
			t.Fatalf("span %d (%s) lost its End: %+v", i, s.Name, s)
		}
		switch s.Name {
		case "measure":
			if s.Parent != 1 || s.Detail != "job" {
				t.Fatalf("span %d = %+v, want a job under execute", i, s)
			}
		case "world":
			if p := spans[s.Parent]; p.Name != "measure" || s.Parent >= i {
				t.Fatalf("span %d = %+v sits under %+v", i, s, p)
			}
		}
	}
	if got := len(tr.Attrs()); got != workers*each {
		t.Errorf("attrs = %d, want %d", got, workers*each)
	}
}

// TestDumpDeterministic: the same request sequence against the same fake
// clock serializes to byte-identical dumps — the property the seeded
// /debug/requests CI check rests on.
func TestDumpDeterministic(t *testing.T) {
	build := func() []byte {
		rt := NewRequestTracer(TracerConfig{
			Clock:    fakeClock(time.Millisecond),
			Recorder: NewFlightRecorder(8, 8),
		})
		for i := 0; i < 5; i++ {
			tr := rt.Start("predict")
			sp := tr.Root().StartChild("singleflight", "")
			for j := 0; j <= i; j++ {
				c := sp.StartChild("cache.disk", fmt.Sprintf("key%d", j))
				c.End()
			}
			sp.End()
			tr.Annotate("cache", "hit")
			status, errMsg := 200, ""
			if i == 3 {
				status, errMsg = 500, "bad window"
			}
			rt.Finish(tr, status, errMsg)
		}
		b, err := json.MarshalIndent(rt.Recorder().Snapshot(), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("dumps differ:\n%s\n---\n%s", a, b)
	}
}
