package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Spans of one request share its request id; parent names the span that
// caused this one (0 for a root).
//
// The program is not instrumented, so children are replayed, not
// intercepted: after timing a round trip the benchmark calls the same
// handler in-process, then each layer function that handler calls, and
// records each call as a child. A replayed child therefore starts after
// its parent ended; its duration, not its position, is what the budget
// uses. A parent's self time is its duration minus its children's.
type span struct {
	id      int
	parent  int
	request int
	name    string
	start   time.Time
	dur     time.Duration
	replay  bool
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so workloads call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request allots the id shared by the spans of one traced operation.
func (t *tracer) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// record stores a finished span and returns its id for children to
// name as their parent.
func (t *tracer) record(request, parent int, name string, start time.Time, dur time.Duration, replay bool) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, request: request, name: name, start: start, dur: dur, replay: replay})
	return id
}

// time runs fn as a span.
func (t *tracer) time(request, parent int, name string, replay bool, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	dur := time.Since(start)
	return t.record(request, parent, name, start, dur, replay), dur
}

// durations returns every recorded duration of the named span, in µs.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.dur.Nanoseconds())/1e3)
		}
	}
	return out
}

// traceEvent is one Chrome trace-event ("X" = complete event). The
// request id is the thread id, so each traced request renders as its
// own track in chrome://tracing or Perfetto.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write dumps the spans as a Chrome trace file.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.request,
			Ts:   float64(s.start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur.Nanoseconds()) / 1e3,
			Args: map[string]any{"span": s.id, "parent": s.parent, "request": s.request, "replay": s.replay},
		}
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
