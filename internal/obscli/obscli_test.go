package obscli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/harness"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/tables"
)

// TestCampaignTraceHasKernelTracks drives what `couple -trace-out` does —
// open the sink, attach it to the workload's worlds, run the study with
// the campaign trace in its context, close — on a grid-6 BT study, and
// checks the exported document is one coherent picture: every rank has a
// kernels thread above its mpi thread, each MPI span that starts inside a
// kernel span of its rank also ends inside it (one clock, one epoch), and
// the harness process carries the pipeline stages with one measure span
// per world.
func TestCampaignTraceHasKernelTracks(t *testing.T) {
	const procs = 4
	out := filepath.Join(t.TempDir(), "bt.json")
	sink, err := Open(Flags{TraceOut: out})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := tables.PredictProblem(predict.Query{Bench: "BT", Class: npb.ClassS, Grid: 6})
	if err != nil {
		t.Fatal(err)
	}
	w, err := tables.NewWorkload("BT", npb.ClassS, prob, procs, sink.WorldOpts())
	if err != nil {
		t.Fatal(err)
	}
	eng := harness.Engine{Workload: w, Opts: harness.Options{Blocks: 1, Metrics: sink.Registry}}
	study, err := eng.RunCtx(obs.ContextWithTrace(t.Context(), sink.Trace), 1, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(obs.NewManifest("couple")); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	type lane struct{ pid, tid int }
	type interval struct{ from, to float64 }
	threads := map[lane]string{}
	processes := map[int]string{}
	spans := map[lane][]interval{}
	names := map[string]int{}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			threads[lane{e.Pid, e.Tid}] = e.Args.Name
		case e.Ph == "M" && e.Name == "process_name":
			processes[e.Pid] = e.Args.Name
		case e.Ph == "X":
			spans[lane{e.Pid, e.Tid}] = append(spans[lane{e.Pid, e.Tid}], interval{e.Ts, e.Ts + e.Dur})
			if e.Pid == procs {
				names[e.Name]++
			}
		}
	}

	for rank := 0; rank < procs; rank++ {
		kernels, mpi := lane{rank, int(obs.TrackKernels)}, lane{rank, int(obs.TrackMPI)}
		if threads[kernels] != "kernels" || threads[mpi] != "mpi" {
			t.Fatalf("rank %d threads = %q / %q, want kernels / mpi", rank, threads[kernels], threads[mpi])
		}
		ks := spans[kernels] // exported sorted by start; one rank's kernels never overlap
		enclosed := 0
		for _, m := range spans[mpi] {
			i := sort.Search(len(ks), func(i int) bool { return ks[i].from > m.from }) - 1
			if i < 0 || m.from >= ks[i].to {
				continue // between kernels: barriers, setup
			}
			if m.to > ks[i].to+1e-3 {
				t.Errorf("rank %d: mpi span [%v, %v] starts inside kernel [%v, %v] but outlives it",
					rank, m.from, m.to, ks[i].from, ks[i].to)
			}
			enclosed++
		}
		if len(ks) == 0 || enclosed == 0 {
			t.Errorf("rank %d: %d kernel spans enclosing %d mpi spans, want both > 0", rank, len(ks), enclosed)
		}
	}

	if processes[procs] != "harness" || threads[lane{procs, int(obs.TrackStages)}] != "spans" {
		t.Errorf("process %d = %q with stage thread %q, want the harness track", procs, processes[procs], threads[lane{procs, int(obs.TrackStages)}])
	}
	for _, stage := range []string{"plan", "execute", "assemble", "analyze"} {
		if names[stage] != 1 {
			t.Errorf("harness track carries %d %q spans, want 1", names[stage], stage)
		}
	}
	if got := names["measure.isolated"] + names["measure.window"] + names["measure.actual"]; got != study.Exec.Executed {
		t.Errorf("harness track carries %d measure spans for %d executed worlds — each job is recorded once", got, study.Exec.Executed)
	}
}
