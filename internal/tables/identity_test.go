package tables

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/npb"
	"repro/internal/predict"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestBenchmarkIdentityGolden pins what each benchmark is to the
// measurement cache: at every class and at one grid override, the
// workload name, the problem with its trips and time step, the world
// digest, the kernel groups, and the sorted job keys of a 2-chain study.
// Every cache directory warmed before a change to how a benchmark is
// described keeps answering only while this golden holds. Regenerate
// with -update.
func TestBenchmarkIdentityGolden(t *testing.T) {
	configs := []struct {
		class npb.Class
		grid  int
	}{{npb.ClassS, 0}, {npb.ClassW, 0}, {npb.ClassA, 0}, {npb.ClassB, 0}, {npb.ClassS, 8}}
	var b strings.Builder
	for _, bench := range []string{"BT", "SP", "LU", "FT"} {
		for _, c := range configs {
			q := predict.Query{Bench: bench, Class: c.class, Procs: 4, Grid: c.grid, Chains: []int{2}, Trips: DefaultTrips(c.class)}
			prob, err := PredictProblem(q)
			if err != nil {
				t.Fatalf("%s.%s grid %d: %v", bench, c.class, c.grid, err)
			}
			w, err := NewWorkload(q.Bench, q.Class, prob, q.Procs, nil)
			if err != nil {
				t.Fatalf("%s.%s grid %d: %v", bench, c.class, c.grid, err)
			}
			app, err := PredictApp(q)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(app.Pre, w.Pre) || !slices.Equal(app.Loop, w.Loop) || !slices.Equal(app.Post, w.Post) {
				t.Errorf("%s: PredictApp's kernels %v %v %v, the workload's %v %v %v", bench, app.Pre, app.Loop, app.Post, w.Pre, w.Loop, w.Post)
			}
			eng, err := BackendConfig{}.Engine(q)
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := eng.Plan(q.Trips, q.Chains)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]string, len(jobs))
			for i, j := range jobs {
				keys[i] = j.Key()
			}
			slices.Sort(keys)
			fmt.Fprintf(&b, "%s class=%s grid=%d\n", bench, c.class, c.grid)
			fmt.Fprintf(&b, "  workload %s\n  problem %s class=%s trips=%d dt=%v\n  digest %s\n", w.Name(), prob, prob.Class, prob.Trips, prob.Dt, WorldDigest(prob, nil))
			fmt.Fprintf(&b, "  pre %v\n  loop %v\n  post %v\n", w.Pre, w.Loop, w.Post)
			fmt.Fprintf(&b, "  jobs %s\n", strings.Join(keys, " "))
		}
	}
	golden := filepath.Join("testdata", "benchmarks.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if b.String() != string(want) {
		t.Errorf("benchmark identities drifted from %s:\n got:\n%s\nwant:\n%s", golden, b.String(), want)
	}
}
