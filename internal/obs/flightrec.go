package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FlightRecorder is a bounded in-memory store of finished request
// traces: it retains the N slowest requests seen so far plus a ring of
// the most recent errored requests, so a long-running service can
// answer "what did the worst requests spend their time on" without
// unbounded growth. The black-box analogy is deliberate — the recorder
// is cheap to feed on every request and only read when something went
// wrong.
//
// Invariants:
//   - Slowest set: after observing any sequence of traces, the retained
//     set is exactly the SlowestCap traces with the largest Total
//     (ties broken toward earlier arrival), ordered slowest-first.
//   - Errored ring: the ErroredCap most recent traces with a non-empty
//     Err, in arrival order; older ones are evicted and counted.
//
// All methods are safe for concurrent use.
type FlightRecorder struct {
	mu      sync.Mutex
	slowCap int
	errCap  int
	slow    []*Trace // sorted: largest Total first
	errored []*Trace // arrival order
	seen    int64
	evicted int64
}

// Default recorder bounds: enough to hold the interesting tail of a
// serving incident without the dump becoming unreadable.
const (
	DefaultSlowestCap = 32
	DefaultErroredCap = 64
)

// NewFlightRecorder returns a recorder retaining the slowestCap slowest
// and the erroredCap most recent errored traces; values below 1 take
// the defaults.
func NewFlightRecorder(slowestCap, erroredCap int) *FlightRecorder {
	if slowestCap < 1 {
		slowestCap = DefaultSlowestCap
	}
	if erroredCap < 1 {
		erroredCap = DefaultErroredCap
	}
	return &FlightRecorder{slowCap: slowestCap, errCap: erroredCap}
}

// Observe files one finished trace. Traces still being mutated must not
// be observed — the caller finishes the trace first (RequestTracer.Finish
// does).
func (f *FlightRecorder) Observe(t *Trace) {
	if f == nil || t == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seen++

	// Slowest set: binary-insert by (Total desc, Seq asc), then truncate.
	// SlowestCap is small, so the copy is a handful of pointer moves.
	i := sort.Search(len(f.slow), func(i int) bool {
		s := f.slow[i]
		if s.Total != t.Total {
			return s.Total < t.Total
		}
		return s.Seq > t.Seq
	})
	if i < f.slowCap {
		f.slow = append(f.slow, nil)
		copy(f.slow[i+1:], f.slow[i:])
		f.slow[i] = t
		if len(f.slow) > f.slowCap {
			f.slow = f.slow[:f.slowCap]
		}
	}

	if t.Err != "" {
		if len(f.errored) == f.errCap {
			copy(f.errored, f.errored[1:])
			f.errored[len(f.errored)-1] = t
			f.evicted++
		} else {
			f.errored = append(f.errored, t)
		}
	}
}

// SpanDump is the serialized form of one span subtree.
type SpanDump struct {
	Name     string     `json:"name"`
	Detail   string     `json:"detail,omitempty"`
	StartNs  int64      `json:"start_ns"`
	DurNs    int64      `json:"dur_ns"`
	Children []SpanDump `json:"children,omitempty"`
}

// TraceDump is the serialized form of one finished request trace.
type TraceDump struct {
	ID       string   `json:"id"`
	Endpoint string   `json:"endpoint"`
	Status   int      `json:"status"`
	Err      string   `json:"error,omitempty"`
	TotalNs  int64    `json:"total_ns"`
	Attrs    []Attr   `json:"attrs,omitempty"`
	Root     SpanDump `json:"spans"`
}

// FlightDump is the recorder's full serialized state — the body of
// GET /debug/requests and of the on-disk flush.
type FlightDump struct {
	// Seen counts every trace ever observed.
	Seen int64 `json:"seen"`
	// ErroredEvicted counts errored traces the ring has dropped.
	ErroredEvicted int64 `json:"errored_evicted,omitempty"`
	// Slowest holds the retained slowest traces, slowest first.
	Slowest []TraceDump `json:"slowest"`
	// Errored holds the retained errored traces in arrival order.
	Errored []TraceDump `json:"errored,omitempty"`
}

// dumpTree rebuilds the span tree rooted at span 0 from the flat list's
// parent indices. Children keep list order, which is start order.
func dumpTree(spans []Span) SpanDump {
	kids := make([][]int, len(spans))
	for i := 1; i < len(spans); i++ {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	var build func(i int) SpanDump
	build = func(i int) SpanDump {
		s := spans[i]
		d := SpanDump{
			Name:    s.Name,
			Detail:  s.Detail,
			StartNs: s.Start.Nanoseconds(),
			DurNs:   s.Elapsed.Nanoseconds(),
		}
		for _, k := range kids[i] {
			d.Children = append(d.Children, build(k))
		}
		return d
	}
	return build(0)
}

// DumpTrace serializes one finished request trace.
func DumpTrace(t *Trace) TraceDump {
	return TraceDump{
		ID:       t.ID,
		Endpoint: t.Endpoint,
		Status:   t.Status,
		Err:      t.Err,
		TotalNs:  t.Total.Nanoseconds(),
		Attrs:    t.Attrs(),
		Root:     dumpTree(t.Spans()),
	}
}

// Snapshot serializes the recorder's current state. The result is
// deterministic for a deterministic observation sequence: slowest
// ordered by (Total desc, arrival asc), errored in arrival order.
func (f *FlightRecorder) Snapshot() FlightDump {
	if f == nil {
		return FlightDump{}
	}
	f.mu.Lock()
	slow := append([]*Trace(nil), f.slow...)
	errored := append([]*Trace(nil), f.errored...)
	d := FlightDump{Seen: f.seen, ErroredEvicted: f.evicted}
	f.mu.Unlock()

	// Serialization happens outside the recorder lock: finished traces
	// are immutable, so only the pointer slices needed the mutex. The
	// span trees are rebuilt here, on the read path, not per request.
	for _, t := range slow {
		d.Slowest = append(d.Slowest, DumpTrace(t))
	}
	for _, t := range errored {
		d.Errored = append(d.Errored, DumpTrace(t))
	}
	return d
}

// WriteFile atomically writes the dump as indented JSON: a temp file in
// the target directory renamed into place, so a reader (or a crash
// mid-flush) never sees a half-written dump.
func (f *FlightRecorder) WriteFile(path string) error {
	if f == nil {
		return nil
	}
	data, err := json.MarshalIndent(f.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: flight dump encode: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	if err := os.Chmod(name, 0o644); err != nil {
		os.Remove(name)
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	return nil
}

// ReadFlightDumpFile loads a dump written by WriteFile (or served by
// /debug/requests) for offline rendering, e.g. by cmd/kcreport.
func ReadFlightDumpFile(path string) (*FlightDump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: flight dump: %w", err)
	}
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("obs: flight dump %s: %w", path, err)
	}
	return &d, nil
}
