package obs

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/timing"
)

// Request-scoped tracing: every serving-layer request gets a Trace with a
// deterministic ID, propagated through context.Context (ContextWithTrace)
// so each layer (serve handler, singleflight, cache, analysis) can
// attribute its share of the request's wall time. Trace IDs come from an
// atomic sequence, never a clock or a random source.

// TracerConfig configures a RequestTracer.
type TracerConfig struct {
	// Clock is the time source; nil means the wall clock. Tests inject a
	// timing.FakeClock for fully deterministic traces.
	Clock timing.Clock
	// Recorder, when non-nil, receives every finished trace.
	Recorder *FlightRecorder
	// Slow is the slow-request threshold: a finished trace at or above
	// it triggers an automatic flight-recorder flush (when FlushPath is
	// set) and is annotated "slow". Zero disables the threshold.
	Slow time.Duration
	// FlushPath is where automatic flushes write the flight-recorder
	// dump; "" disables automatic flushing.
	FlushPath string
}

// RequestTracer mints request traces and routes finished ones into the
// flight recorder. A nil *RequestTracer is valid and inert: Start
// returns a nil trace, and everything downstream no-ops — the
// disabled-tracing cost is one nil check per request.
type RequestTracer struct {
	clock timing.Clock
	rec   *FlightRecorder
	slow  time.Duration
	flush string
	seq   atomic.Uint64
	// flushing collapses a flush stampede: when many requests error or
	// run slow at once, one goroutine writes the dump and the rest skip
	// — the dump they would have written is a moment older, nothing
	// more. No lock is held across the disk write (WriteFile is atomic
	// on its own via temp-file + rename).
	flushing atomic.Bool
}

// NewRequestTracer builds a tracer from the config.
func NewRequestTracer(cfg TracerConfig) *RequestTracer {
	c := cfg.Clock
	if c == nil {
		c = timing.WallClock
	}
	return &RequestTracer{
		clock: c,
		rec:   cfg.Recorder,
		slow:  cfg.Slow,
		flush: cfg.FlushPath,
	}
}

// Recorder returns the tracer's flight recorder (nil when none, or on a
// nil tracer).
func (rt *RequestTracer) Recorder() *FlightRecorder {
	if rt == nil {
		return nil
	}
	return rt.rec
}

// requestTrace is a request's Trace with inline room for what a warm
// request records — root, setup, guard.queue, parse, cache.memo and
// respond, and its cache/backend/cluster annotations — so Start
// allocates one object. A cold request's spans outgrow the room and
// continue on the heap by append. Traces are never pooled: the flight
// recorder keeps pointers to them.
type requestTrace struct {
	Trace
	spanBuf [7]Span
	attrBuf [3]Attr
}

// Start opens a trace for one request: a fresh ID ("t-" and its sequence
// number), an epoch at now, and
// a root span (index 0) covering the handler. Nil-safe: a nil tracer
// returns a nil trace.
func (rt *RequestTracer) Start(endpoint string) *Trace {
	if rt == nil {
		return nil
	}
	seq := rt.seq.Add(1)
	var idbuf [24]byte
	rq := new(requestTrace)
	t := &rq.Trace
	t.ID = string(appendSeq(append(idbuf[:0], "t-"...), seq))
	t.Endpoint, t.Seq, t.clock = endpoint, seq, rt.clock
	t.spans, t.attrs = rq.spanBuf[:1], rq.attrBuf[:0]
	t.spans[0] = Span{Name: endpoint, Rank: -1, Track: TrackStages, Parent: -1}
	// Stamped last: a request is not billed for building its own recorder.
	t.epoch = rt.clock.Now()
	return t
}

// appendSeq renders seq as fixed-width zero-padded hex so trace IDs sort
// lexically in arrival order.
func appendSeq(b []byte, seq uint64) []byte {
	var hexbuf [16]byte
	h := strconv.AppendUint(hexbuf[:0], seq, 16)
	for i := len(h); i < 8; i++ {
		b = append(b, '0')
	}
	return append(b, h...)
}

// Finish closes the trace: the root span ends, the outcome is stamped,
// the trace lands in the flight recorder, and a slow or errored request
// triggers an automatic dump flush when a flush path is configured.
// Nil-safe on both the tracer and the trace.
func (rt *RequestTracer) Finish(t *Trace, status int, errMsg string) {
	if rt == nil || t == nil {
		return
	}
	root := t.Root()
	root.End()
	t.Status = status
	t.Err = errMsg
	t.Total = root.Span().Elapsed
	slow := rt.slow > 0 && t.Total >= rt.slow
	if slow {
		t.Annotate("slow", t.Total.String())
	}
	if rt.rec != nil {
		rt.rec.Observe(t)
		if rt.flush != "" && (slow || errMsg != "") {
			rt.tryFlush()
		}
	}
}

// Flush writes the flight-recorder dump to the configured flush path
// (e.g. on shutdown or when a fault watchdog fires). Unlike the
// automatic per-request flush it never skips — a shutdown dump must
// reflect the final recorder state. It is a no-op without a recorder or
// flush path. Nil-safe.
func (rt *RequestTracer) Flush() error {
	if rt == nil || rt.rec == nil || rt.flush == "" {
		return nil
	}
	return rt.rec.WriteFile(rt.flush)
}

// tryFlush writes the dump unless another goroutine already is: an
// error burst triggers one write, not one per failed request.
func (rt *RequestTracer) tryFlush() {
	if !rt.flushing.CompareAndSwap(false, true) {
		return
	}
	defer rt.flushing.Store(false)
	rt.rec.WriteFile(rt.flush)
}
