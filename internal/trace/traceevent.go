package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
)

// The Chrome trace-event JSON format (loadable by Perfetto's UI and by
// chrome://tracing) models a trace as processes and threads carrying
// complete events ("ph":"X") with microsecond timestamps. The exporter
// maps a Group of spans onto it:
//
//	process (pid)   one per rank, then one for the group's process-level
//	                spans (obs.Span.Rank < 0): "harness" for a campaign,
//	                the group's label for a request
//	thread (tid)    the span's obs.Track: 0 kernels, 1 mpi, 2 spans
//
// so the Perfetto timeline shows, per rank, the kernel track with the
// communication track directly beneath it — the visual form of the
// paper's question about how kernels couple through communication — and
// a flight-recorder dump opens as a gallery of per-request flame graphs.

// traceEvent is one entry of the "traceEvents" array. Field order here is
// emission order (encoding/json preserves struct order), which keeps the
// output byte-stable for golden tests.
type traceEvent struct {
	Name  string     `json:"name"`
	Phase string     `json:"ph"`
	Ts    float64    `json:"ts"`            // microseconds from epoch
	Dur   float64    `json:"dur,omitempty"` // microseconds
	Pid   int        `json:"pid"`
	Tid   int        `json:"tid"`
	Args  *eventArgs `json:"args,omitempty"`
}

// eventArgs carries the optional per-event payload. A struct (rather than
// a map) keeps encoding allocation-light — npbrun traces carry thousands
// of events and the export happens inside the run's wall time.
type eventArgs struct {
	Name   string  `json:"name,omitempty"`    // metadata events only
	Detail string  `json:"detail,omitempty"`  // e.g. "src=2 tag=7"
	Bytes  int     `json:"bytes,omitempty"`   // payload size
	WaitUs float64 `json:"wait_us,omitempty"` // blocked time, microseconds
}

// usec converts a duration to fractional microseconds, the trace-event
// time unit.
func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Group is one set of spans sharing a trace's epoch: a whole campaign or
// benchmark run, or one request. Each group gets its own block of
// process ids, so several can sit side by side in one document.
type Group struct {
	// Label names the process carrying the group's process-level spans;
	// "" means "harness".
	Label string
	// Spans is the group's spans in record order.
	Spans []obs.Span
}

// WriteTraceEvents renders the groups as one Chrome trace-event JSON
// document on w. The output is deterministic: within a group events are
// sorted by (pid, tid, ts, name), groups keep their order, and metadata
// naming every process and thread that carries events precedes the data.
func WriteTraceEvents(w io.Writer, groups ...Group) error {
	var metas, out []traceEvent
	base := 0
	for _, g := range groups {
		maxRank := -1
		for _, s := range g.Spans {
			if s.Rank > maxRank {
				maxRank = s.Rank
			}
		}
		hostPid := base + maxRank + 1
		first := len(out)
		for _, s := range g.Spans {
			pid := base + s.Rank
			if s.Rank < 0 {
				pid = hostPid
			}
			var args *eventArgs
			if s.Detail != "" || s.Bytes > 0 || s.Wait > 0 {
				args = &eventArgs{Detail: s.Detail, Bytes: s.Bytes, WaitUs: usec(s.Wait)}
			}
			out = append(out, traceEvent{
				Name:  s.Name,
				Phase: "X",
				Ts:    usec(s.Start),
				Dur:   usec(s.Elapsed),
				Pid:   pid,
				Tid:   int(s.Track),
				Args:  args,
			})
		}
		events := out[first:]
		sort.SliceStable(events, func(i, j int) bool {
			a, b := events[i], events[j]
			if a.Pid != b.Pid {
				return a.Pid < b.Pid
			}
			if a.Tid != b.Tid {
				return a.Tid < b.Tid
			}
			if a.Ts != b.Ts {
				return a.Ts < b.Ts
			}
			return a.Name < b.Name
		})

		// Metadata: name every process and thread that carries events,
		// read off the sorted events as each first appears.
		meta := func(name, key string, pid, tid int) {
			metas = append(metas, traceEvent{Name: name, Phase: "M", Pid: pid, Tid: tid, Args: &eventArgs{Name: key}})
		}
		for i, e := range events {
			newPid := i == 0 || events[i-1].Pid != e.Pid
			if newPid {
				pname := fmt.Sprintf("rank %d", e.Pid-base)
				if e.Pid == hostPid {
					pname = g.Label
					if pname == "" {
						pname = "harness"
					}
				}
				meta("process_name", pname, e.Pid, 0)
			}
			if newPid || events[i-1].Tid != e.Tid {
				meta("thread_name", obs.Track(e.Tid).String(), e.Pid, e.Tid)
			}
		}
		base = hostPid + 1
	}
	return streamEvents(w, append(metas, out...))
}

// streamEvents writes one compact event per line instead of
// json-encoding (and indenting) the whole document at once: the indent
// pass re-buffers the entire output and dominated export time at npbrun
// scale, and one-event-per-line still diffs cleanly in the golden tests.
func streamEvents(w io.Writer, all []traceEvent) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\n \"traceEvents\":[\n")
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false) // kernel/op names never carry HTML
	for i := range all {
		if i == 0 {
			bw.WriteString("  ")
		} else {
			bw.WriteString(" ,") // comma-first: Encode ends each line itself
		}
		if err := enc.Encode(&all[i]); err != nil {
			return err
		}
	}
	bw.WriteString(" ]}\n")
	return bw.Flush()
}

// WriteTraceEventFile is WriteTraceEvents to a named file.
func WriteTraceEventFile(path string, groups ...Group) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTraceEvents(f, groups...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
