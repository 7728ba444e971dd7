package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/timing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// traceFile is the top-level JSON object Perfetto expects; the writer
// streams this shape by hand, the tests decode it.
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// multiRankFixture builds a fixed two-rank trace — kernel spans, the MPI
// spans under them and one process-level span — on a frozen fake clock:
// every timestamp is exact, so renderings and exports can be compared
// byte-for-byte against golden files.
func multiRankFixture() *obs.Trace {
	tr := obs.NewTrace(&timing.FakeClock{T: time.Unix(0, 0)})
	base := tr.Now()
	ms, us := time.Millisecond, time.Microsecond

	tr.Record(base, obs.Span{Rank: 0, Name: "X_SOLVE", Elapsed: 5 * ms})
	tr.Record(base.Add(1*ms), obs.Span{Rank: 1, Name: "X_SOLVE", Elapsed: 4 * ms})
	tr.Record(base.Add(5*ms), obs.Span{Rank: 0, Name: "Y_SOLVE", Elapsed: 3 * ms})
	tr.Record(base.Add(6*ms), obs.Span{Rank: 1, Name: "ADD", Elapsed: 1 * ms})

	tr.Record(base.Add(2*ms), obs.Span{Track: obs.TrackMPI, Rank: 0, Name: "send", Detail: "dst=1 tag=3", Bytes: 800, Elapsed: 100 * us})
	tr.Record(base.Add(2100*us), obs.Span{Track: obs.TrackMPI, Rank: 1, Name: "recv", Detail: "src=0 tag=3", Bytes: 800, Elapsed: 300 * us, Wait: 250 * us})
	tr.Record(base.Add(7*ms), obs.Span{Track: obs.TrackMPI, Rank: 1, Name: "allreduce", Bytes: 8, Elapsed: 200 * us, Wait: 200 * us})
	tr.Record(base, obs.Span{Track: obs.TrackMPI, Rank: -1, Name: "window", Detail: "BT trip 1", Elapsed: 8 * ms})
	return tr
}

// export renders the fixture through the one exporter.
func export(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, Group{Spans: multiRankFixture().Spans()}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGolden compares got against testdata/name, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestTimelineGolden(t *testing.T) {
	checkGolden(t, "timeline.golden", []byte(KernelView(multiRankFixture().Spans()).Timeline(40)))
}

func TestProfilesGolden(t *testing.T) {
	checkGolden(t, "profiles.golden", []byte(KernelView(multiRankFixture().Spans()).String()))
}

func TestTraceEventGolden(t *testing.T) {
	checkGolden(t, "traceevent.golden.json", export(t))
}

func TestTraceEventDeterministicBytes(t *testing.T) {
	if !bytes.Equal(export(t), export(t)) {
		t.Error("two exports of the same trace differ")
	}
}

// TestTraceEventRoundTrip re-parses the export and checks the shape the
// Perfetto / chrome://tracing JSON importer requires: a traceEvents array
// of objects whose ph is "X" (complete, with ts+dur in microseconds) or
// "M" (metadata naming processes and threads).
func TestTraceEventRoundTrip(t *testing.T) {
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(export(t), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 4 kernel events + 4 spans = 8 data events; the fixture names ranks
	// 0, 1 and the harness process 2, each with the threads it uses.
	var x, m int
	processes := map[int]string{}
	threads := map[[2]int]string{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			x++
			if e.Dur <= 0 {
				t.Errorf("complete event %q has dur %v", e.Name, e.Dur)
			}
			if e.Ts < 0 {
				t.Errorf("complete event %q has ts %v before the epoch", e.Name, e.Ts)
			}
		case "M":
			m++
			name, _ := e.Args["name"].(string)
			switch e.Name {
			case "process_name":
				processes[e.Pid] = name
			case "thread_name":
				threads[[2]int{e.Pid, e.Tid}] = name
			default:
				t.Errorf("unexpected metadata event %q", e.Name)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if x != 8 {
		t.Errorf("got %d complete events, want 8", x)
	}
	if processes[0] != "rank 0" || processes[1] != "rank 1" || processes[2] != "harness" {
		t.Errorf("process names = %v", processes)
	}
	if threads[[2]int{0, int(obs.TrackKernels)}] != "kernels" || threads[[2]int{1, int(obs.TrackMPI)}] != "mpi" {
		t.Errorf("thread names = %v", threads)
	}
	if _, ok := threads[[2]int{2, int(obs.TrackKernels)}]; ok {
		t.Error("harness process should carry no kernel thread")
	}
	// The recv span must carry its byte count and wait time.
	var sawRecvArgs bool
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Name == "recv" {
			if b, _ := e.Args["bytes"].(float64); b != 800 {
				t.Errorf("recv bytes arg = %v", e.Args["bytes"])
			}
			if w, _ := e.Args["wait_us"].(float64); w != 250 {
				t.Errorf("recv wait_us arg = %v", e.Args["wait_us"])
			}
			sawRecvArgs = true
		}
	}
	if !sawRecvArgs {
		t.Error("recv span missing from export")
	}
}

func TestTraceEventSortedAndAligned(t *testing.T) {
	var doc traceFile
	if err := json.Unmarshal(export(t), &doc); err != nil {
		t.Fatal(err)
	}
	var prev *traceEvent
	for i := range doc.TraceEvents {
		e := &doc.TraceEvents[i]
		if e.Phase != "X" {
			continue
		}
		if prev != nil {
			if e.Pid < prev.Pid ||
				(e.Pid == prev.Pid && e.Tid < prev.Tid) ||
				(e.Pid == prev.Pid && e.Tid == prev.Tid && e.Ts < prev.Ts) {
				t.Errorf("events out of (pid, tid, ts) order: %+v after %+v", e, prev)
			}
		}
		prev = e
	}
	// Epoch alignment: rank 0's X_SOLVE starts at ts 0, and the send it
	// issues 2ms in sits inside it on the shared timebase.
	var solve0, send0 *traceEvent
	for i := range doc.TraceEvents {
		e := &doc.TraceEvents[i]
		if e.Pid == 0 && e.Name == "X_SOLVE" {
			solve0 = e
		}
		if e.Pid == 0 && e.Name == "send" {
			send0 = e
		}
	}
	if solve0 == nil || send0 == nil {
		t.Fatal("fixture events missing from export")
	}
	if solve0.Ts != 0 || send0.Ts != 2000 {
		t.Errorf("ts: X_SOLVE=%v send=%v, want 0 and 2000 µs", solve0.Ts, send0.Ts)
	}
}

func TestWriteTraceEventFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteTraceEventFile(path, Group{Spans: multiRankFixture().Spans()}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Error("file export is not valid JSON")
	}
}

func TestTraceEventEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("empty trace produced %d events", len(doc.TraceEvents))
	}
}

// requestDumpFixture serves three requests off one fake clock into a
// flight recorder that keeps the two slowest: a slow clean one, a fast
// errored one, and one both slow and errored — which the dump therefore
// lists twice, under "slowest" and under "errored".
func requestDumpFixture() obs.FlightDump {
	rt := obs.NewRequestTracer(obs.TracerConfig{
		Clock:    &timing.FakeClock{T: time.Unix(0, 0), Steps: []time.Duration{time.Millisecond}},
		Recorder: obs.NewFlightRecorder(2, 4),
	})
	serve := func(endpoint string, loads int, status int, errMsg string) {
		tr := rt.Start(endpoint)
		ctx := obs.ContextWithTrace(context.Background(), tr)
		parse, _ := obs.StartSpan(ctx, "parse", "")
		parse.End()
		sf, sfctx := obs.StartSpan(ctx, "singleflight", "")
		for i := 0; i < loads; i++ {
			disk, _ := obs.StartSpan(sfctx, "cache.disk", fmt.Sprintf("key%d", i))
			disk.End()
		}
		sf.SetDetail("leader")
		sf.End()
		rt.Finish(tr, status, errMsg)
	}
	serve("predict", 3, 200, "")               // t-00000001: slow
	serve("couplings", 0, 400, "bad window")   // t-00000002: errored
	serve("predict", 5, 504, "deadline spent") // t-00000003: both
	return rt.Recorder().Snapshot()
}

// TestRequestDumpGolden pins the request-dump export byte for byte: it
// goes through the same WriteTraceEvents as a campaign, one process per
// retained request, and a request the dump lists in both pools is one
// process labelled with both.
func TestRequestDumpGolden(t *testing.T) {
	d := requestDumpFixture()
	if len(d.Slowest) != 2 || len(d.Errored) != 2 || d.Slowest[0].ID != d.Errored[1].ID {
		t.Fatalf("fixture should retain one request in both pools: %+v", d)
	}
	groups := RequestGroups(&d)
	if len(groups) != 3 {
		t.Fatalf("%d export groups for 3 distinct requests", len(groups))
	}
	for i, want := range []string{
		"slowest+errored t-00000003 /predict (504)",
		"slowest t-00000001 /predict (200)",
		"errored t-00000002 /couplings (400)",
	} {
		if groups[i].Label != want {
			t.Errorf("group %d labelled %q, want %q", i, groups[i].Label, want)
		}
	}
	// Flattening the dumped tree restores the recorded layout: parents
	// precede children, siblings stay in start order.
	for _, g := range groups {
		for i, s := range g.Spans {
			if s.Parent >= i || (i == 0) != (s.Parent == -1) {
				t.Errorf("%s: span %d %q has parent %d", g.Label, i, s.Name, s.Parent)
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, groups...); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "requests.golden.json", buf.Bytes())
}
