package obs

import (
	"context"
	"sync"
	"time"

	"repro/internal/timing"
)

// One span type and one recorder cover everything this repository times:
// kernel executions and MPI operations on per-rank tracks (recorded whole,
// after the fact, by mpi.Observer), and the serving and harness stages of
// a request or a campaign (opened and closed around the work through a
// context.Context). All of a trace's spans share its clock and epoch, so
// a kernel span and the communication under it line up by construction,
// and a FakeClock workload produces byte-identical dumps.

// Track names the timeline lane a span renders on. The values are the
// exporter's thread ids, so the kernel lane sits directly above the MPI
// lane of the same rank.
type Track uint8

const (
	// TrackKernels carries kernel executions, one lane per rank.
	TrackKernels Track = iota
	// TrackMPI carries point-to-point and collective operations.
	TrackMPI
	// TrackStages carries request and campaign stages ("parse",
	// "singleflight", "execute", "measure.window", ...).
	TrackStages
)

// String returns the lane's display name.
func (k Track) String() string {
	switch k {
	case TrackKernels:
		return "kernels"
	case TrackMPI:
		return "mpi"
	}
	return "spans"
}

// Span is one timed interval: a kernel execution, an MPI operation, or a
// stage of a request or campaign.
type Span struct {
	// Name identifies the operation: a kernel name, "send", "recv",
	// "bcast", "singleflight", "cache.load", "measure.window".
	Name string
	// Detail carries operation-specific context, e.g. "src=2 tag=7", a
	// window key, or an outcome such as "hit".
	Detail string
	// Rank is the executing rank; -1 marks process-level activity (a
	// request or harness stage) that belongs to no rank.
	Rank int
	// Track is the lane the span renders on.
	Track Track
	// Bytes is the payload size moved by the operation, 0 when
	// meaningless.
	Bytes int
	// Start is the offset from the trace's epoch.
	Start time.Duration
	// Elapsed is the span duration; 0 until an open span is ended.
	Elapsed time.Duration
	// Wait is the portion of Elapsed spent blocked (e.g. a receive
	// waiting for a match, as opposed to transferring); 0 when the
	// operation never blocks.
	Wait time.Duration
	// Parent is the index, in the trace's span list, of the enclosing
	// span; -1 marks a top-level span. A parent always precedes its
	// children, and siblings appear in start order.
	Parent int
}

// Attr is one trace annotation. Annotations are an ordered list, not a
// map, so dumps serialize deterministically.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Trace is the one recorder: a flat list of spans against a single clock
// and epoch, plus ordered annotations. A request trace (minted by
// RequestTracer.Start) additionally carries an ID, an endpoint and the
// outcome Finish stamps, and its span 0 is the request-level root; a
// campaign trace (NewTrace) carries none of those and its spans are top
// level unless opened under another.
//
// Concurrency contract (every method is safe for concurrent use):
//
//   - Record and StartChild append atomically: a span is either fully
//     stored or not yet stored, and Spans never observes a half-written
//     entry. Spans recorded concurrently land in lock-acquisition order.
//   - End and SetDetail write through the same mutex, so a span closed
//     while another goroutine's append regrows the list is never lost.
//   - Spans and Attrs return consistent copies.
//   - The outcome fields (Status, Err, Total) are written once by Finish
//     and must not be read before it returns.
type Trace struct {
	// ID is the request's trace identifier, unique within its tracer;
	// "" on a campaign trace.
	ID string
	// Endpoint names the handler, e.g. "predict".
	Endpoint string
	// Status is the HTTP status Finish recorded.
	Status int
	// Err is the error body for failed requests, "" on success.
	Err string
	// Total is the root span's elapsed time, fixed by Finish.
	Total time.Duration
	// Seq is the trace's position in the tracer's arrival order.
	Seq uint64

	mu    sync.Mutex
	clock timing.Clock
	epoch time.Time
	spans []Span
	attrs []Attr
}

// NewTrace returns a campaign trace reading the given clock (nil means
// the wall clock) whose epoch is now.
func NewTrace(c timing.Clock) *Trace {
	if c == nil {
		c = timing.WallClock
	}
	return &Trace{clock: c, epoch: c.Now()}
}

// Now reads the trace's clock; instrumented code uses it so span
// boundaries come from the same source as the epoch.
func (t *Trace) Now() time.Time { return t.clock.Now() }

// Record stores one finished top-level span whose absolute start time is
// given; the trace rebases it onto its epoch. This is the path for
// per-rank activity timed by the caller (kernels, MPI operations).
func (t *Trace) Record(start time.Time, s Span) {
	s.Start, s.Parent = start.Sub(t.epoch), -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in record order. Nil-safe.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Root returns the position new stages open under: a request trace's
// request-level span, or the top level of a campaign trace. Nil-safe.
func (t *Trace) Root() SpanRef {
	switch {
	case t == nil:
		return SpanRef{}
	case t.ID == "":
		return SpanRef{t, -1}
	}
	return SpanRef{t, 0}
}

// Annotate appends a key/value annotation (cache hit/miss, singleflight
// role, ...). Nil-safe.
func (t *Trace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs = append(t.attrs, Attr{Key: key, Value: value})
	t.mu.Unlock()
}

// Attrs returns a copy of the annotations in append order.
func (t *Trace) Attrs() []Attr {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Attr(nil), t.attrs...)
}

// Attr returns the first annotation with the given key. Nil-safe.
func (t *Trace) Attr(key string) (string, bool) {
	if t == nil {
		return "", false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range t.attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// SpanRef is the handle to one open span: its trace and its index there.
// The zero SpanRef belongs to no trace and all its methods are no-ops, so
// disabled tracing costs one nil check per call.
type SpanRef struct {
	t *Trace
	i int
}

// StartChild opens a stage span under r and returns its handle.
func (r SpanRef) StartChild(name, detail string) SpanRef {
	t := r.t
	if t == nil {
		return SpanRef{}
	}
	start := t.clock.Now().Sub(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Detail: detail, Rank: -1, Track: TrackStages, Start: start, Parent: r.i})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return SpanRef{t, i}
}

// End closes the span, fixing its Elapsed.
func (r SpanRef) End() {
	t := r.t
	if t == nil || r.i < 0 {
		return
	}
	end := t.clock.Now().Sub(t.epoch)
	t.mu.Lock()
	t.spans[r.i].Elapsed = end - t.spans[r.i].Start
	t.mu.Unlock()
}

// SetDetail replaces the span's detail string (e.g. once an outcome is
// known: "hit" vs "miss").
func (r SpanRef) SetDetail(detail string) {
	t := r.t
	if t == nil || r.i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[r.i].Detail = detail
	t.mu.Unlock()
}

// Span returns a copy of the span as recorded so far; the zero Span for
// a handle that names none.
func (r SpanRef) Span() Span {
	t := r.t
	if t == nil || r.i < 0 {
		return Span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[r.i]
}

// spanCtxKey carries the current SpanRef — and through it the trace —
// in a context: a *Trace stands for its root, which spares boxing a
// SpanRef for every request.
type spanCtxKey struct{}

// ContextWithTrace returns a context whose current span is the trace's
// root, so stages opened below land in it. A nil trace returns ctx
// unchanged.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, t)
}

// SpanFrom returns the context's current span, the zero SpanRef when
// tracing is off.
func SpanFrom(ctx context.Context) SpanRef {
	switch v := ctx.Value(spanCtxKey{}).(type) {
	case SpanRef:
		return v
	case *Trace:
		return v.Root()
	}
	return SpanRef{}
}

// TraceFrom returns the context's trace, nil when tracing is off.
func TraceFrom(ctx context.Context) *Trace { return SpanFrom(ctx).t }

// StartSpan opens a child of the context's current span and returns it
// with a context carrying it as the new current span. With tracing off
// (no span in ctx) it returns (SpanRef{}, ctx) — one lookup, no
// allocation — and the zero handle's methods are all no-ops.
func StartSpan(ctx context.Context, name, detail string) (SpanRef, context.Context) {
	parent := SpanFrom(ctx)
	if parent.t == nil {
		return SpanRef{}, ctx
	}
	s := parent.StartChild(name, detail)
	return s, context.WithValue(ctx, spanCtxKey{}, s)
}
