package plan

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/npb/bt"
)

var update = flag.Bool("update", false, "rewrite golden files")

func btApp(t *testing.T) core.App {
	t.Helper()
	pre, loop, post := bt.KernelNames()
	app := core.App{Name: "BT.S.4", Pre: pre, Loop: core.Ring(loop), Post: post, Trips: 60}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	return app
}

func btInputs() Inputs {
	return Inputs{
		Workload:    "BT.S.4",
		Procs:       4,
		Trips:       60,
		ChainLens:   []int{2, 5},
		Blocks:      5,
		Passes:      1,
		ActualRuns:  3,
		WorldDigest: "grid=12 x 12 x 12",
	}
}

// checkJobsGolden renders each job as "kind key canonical" and compares
// the listing with testdata/<name>. Regenerate with -update.
func checkJobsGolden(t *testing.T, name string, jobs []Job) {
	t.Helper()
	var b strings.Builder
	for _, j := range jobs {
		fmt.Fprintf(&b, "%-8s %-24s %s\n", j.Kind, j.Key(), j.Canonical())
	}
	golden := filepath.Join("testdata", name)
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
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if b.String() != string(want) {
		t.Errorf("%s drifted from golden (run with -update if intended):\n got:\n%s\nwant:\n%s", name, b.String(), want)
	}
}

// TestStudyPlanGolden pins the plan order and job keys for a BT class S
// study — the deterministic-order contract the serial executor and the
// byte-identical `-parallel 1` mode rest on.
func TestStudyPlanGolden(t *testing.T) {
	jobs, err := StudyJobs(btApp(t), btInputs())
	if err != nil {
		t.Fatal(err)
	}
	checkJobsGolden(t, "bt_plan.golden", jobs)
}

// TestCanonicalEdgeGolden pins the key pre-image where the BT study's
// inputs do not reach: trims that %g renders in exponent form or as a
// non-number, a fault digest, actual runs with large trip counts, a
// rankless workload, an empty window. The golden was written by the
// fmt.Fprintf("...|trim=%g|...") implementation, so it holds the append
// implementation to those bytes — a key that drifted would turn every
// cache directory written before it cold.
func TestCanonicalEdgeGolden(t *testing.T) {
	faulty := btInputs()
	faulty.FaultDigest = "spec=delay:X_SOLVE:1:0.5:2ms;seed=7"
	faulty.Trips = 250
	var jobs []Job
	tenth := 0.1 // a variable, so tenth+0.2 rounds at run time to 0.30000000000000004
	for _, trim := range []float64{0.34, 1e-7, -1, 0.5, tenth + 0.2, 1e21, 123456789, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
		in := faulty
		in.TrimFrac = trim
		jobs = append(jobs, WindowJob(in, []string{"COPY_FACES", "X_SOLVE", "Y_SOLVE"}))
	}
	jobs = append(jobs,
		WindowJob(faulty, []string{"ADD"}),
		WindowJob(faulty, nil),
		ActualJob(faulty, 0),
		ActualJob(faulty, 2),
		ActualJob(Inputs{Workload: "syn|thetic %d", Procs: 0, Trips: -3}, -1),
	)
	checkJobsGolden(t, "canonical_edge.golden", jobs)
}

// TestStudyPlanDeterministic: same inputs, same order and keys — across
// repeated enumerations in one process.
func TestStudyPlanDeterministic(t *testing.T) {
	app := btApp(t)
	in := btInputs()
	first, err := StudyJobs(app, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := StudyJobs(app, in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("enumeration %d differs from the first", i)
		}
	}
}

func TestStudyPlanShape(t *testing.T) {
	jobs, err := StudyJobs(btApp(t), btInputs())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Kind]int{}
	for _, j := range jobs {
		counts[j.Kind]++
	}
	// BT: 7 kernels isolated (pre + 5-ring + post), 5 pair windows,
	// 1 full-ring window (L=5 windows dedupe to one), 3 actual runs.
	want := map[Kind]int{KindIsolated: 7, KindWindow: 6, KindActual: 3}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("job counts %v, want %v", counts, want)
	}
	keys := map[string]bool{}
	for _, j := range jobs {
		if keys[j.Key()] {
			t.Errorf("duplicate job key %s (%s)", j.Key(), j.Canonical())
		}
		keys[j.Key()] = true
	}
}

func TestStudyPlanRejectsBadChainLen(t *testing.T) {
	for _, L := range []int{0, 1, 6, -2} {
		in := btInputs()
		in.ChainLens = []int{L}
		if _, err := StudyJobs(btApp(t), in); err == nil {
			t.Errorf("chain length %d should be rejected", L)
		}
	}
}

// TestKeySensitivity: every field that can change a measured value must
// change the key; fields irrelevant to a kind must not.
func TestKeySensitivity(t *testing.T) {
	in := btInputs()
	win := []string{"COPY_FACES", "X_SOLVE"}
	base := WindowJob(in, win)

	perturb := []func(*Inputs){
		func(i *Inputs) { i.Workload = "BT.W.4" },
		func(i *Inputs) { i.Procs = 9 },
		func(i *Inputs) { i.Blocks = 3 },
		func(i *Inputs) { i.Passes = 2 },
		func(i *Inputs) { i.TrimFrac = 0.34 },
		func(i *Inputs) { i.WorldDigest = "grid=8 x 8 x 8" },
		func(i *Inputs) { i.FaultDigest = "spec=delay:X_SOLVE:1:0.5:2ms;seed=1" },
	}
	for n, f := range perturb {
		p := in
		f(&p)
		if WindowJob(p, win).Key() == base.Key() {
			t.Errorf("perturbation %d did not change the window job key", n)
		}
	}
	// Trips must NOT affect window jobs (per-pass times are trip-free)...
	p := in
	p.Trips = 999
	if WindowJob(p, win).Key() != base.Key() {
		t.Error("trip count leaked into a window job key")
	}
	// ...but must affect actual jobs, as must the run index.
	a0 := ActualJob(in, 0)
	if ActualJob(p, 0).Key() == a0.Key() {
		t.Error("trip count missing from the actual job key")
	}
	if ActualJob(in, 1).Key() == a0.Key() {
		t.Error("run index missing from the actual job key")
	}
}

func TestLabels(t *testing.T) {
	in := btInputs()
	if got := WindowJob(in, []string{"A", "B"}).Label(); got != "A|B" {
		t.Errorf("window label %q", got)
	}
	if got := WindowJob(in, []string{"A"}).Kind; got != KindIsolated {
		t.Errorf("single-kernel window kind %q", got)
	}
	if got := ActualJob(in, 0).Label(); got != "BT.S.4" {
		t.Errorf("actual label %q", got)
	}
}
