package predict

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/npb"
	"repro/internal/npb/bt"
	"repro/internal/npb/lu"
)

var update = flag.Bool("update", false, "rewrite golden files")

const goldenHeader = `# Every float of six model-based predictions, as %x.
# Written by the commit before interpolate.go and analytic.go were moved
# onto one synthesis routine; it is the proof that the move kept every
# IEEE operation in order. Do not regenerate it to make a test pass.
`

// renderPrediction lists every float a model-based prediction carries, in
// a fixed order, exactly (%x).
func renderPrediction(b *strings.Builder, title string, pr Prediction) {
	fmt.Fprintf(b, "== %s\n", title)
	fmt.Fprintf(b, "value %x band %x %x\n", pr.Value, pr.Band.Lo, pr.Band.Hi)
	st := pr.Study
	fmt.Fprintf(b, "actual %x summation %x %x\n", st.Actual, st.Summation.Predicted, st.Summation.RelErr)
	for _, k := range st.App.KernelsSorted() {
		fmt.Fprintf(b, "isolated %s %x\n", k, st.Measurements.Isolated[k])
	}
	for _, wb := range pr.Windows {
		key := core.Key(wb.Window)
		fmt.Fprintf(b, "window %s C %x lo %x hi %x P_S %x\n", key, wb.C, wb.Lo, wb.Hi, st.Measurements.Window[key])
	}
	if len(st.Measurements.Window) != len(pr.Windows) {
		fmt.Fprintf(b, "window count %d != band count %d\n", len(st.Measurements.Window), len(pr.Windows))
	}
	for _, l := range st.ChainLens() {
		p := st.Couplings[l]
		fmt.Fprintf(b, "chain %d predicted %x relerr %x\n", l, p.Predicted, p.RelErr)
		det := st.Details[l]
		kernels := make([]string, 0, len(det.Coefficients))
		for k := range det.Coefficients {
			kernels = append(kernels, k)
		}
		sort.Strings(kernels)
		for _, k := range kernels {
			fmt.Fprintf(b, "chain %d coefficient %s %x\n", l, k, det.Coefficients[k])
		}
	}
}

// benchAnalytic is the analytic backend over the real class geometry and
// kernel rings of BT and LU — what tables.NewAnalytic builds, without
// importing tables (which imports this package).
func benchAnalytic() *Analytic {
	return &Analytic{
		Problem: func(q Query) (npb.Problem, error) {
			if q.Bench == "LU" {
				return lu.Benchmark.Problem(q.Class)
			}
			return bt.Benchmark.Problem(q.Class)
		},
		App: func(q Query) (core.App, error) {
			b := &bt.Benchmark
			if q.Bench == "LU" {
				b = &lu.Benchmark
			}
			return core.App{Name: q.Workload(), Pre: b.Pre, Loop: core.Ring(b.Loop), Post: b.Post, Trips: q.Trips}, nil
		},
	}
}

// roughStudyFn is synthStudyFn off its law: a fixed cost beside the
// per-cell one, a per-size wobble, and a pair interaction that switches on
// above 8³ — so the fit leaves residuals, the step model finds a
// transition, and a two-point lattice extrapolates a kernel below zero.
func roughStudyFn(t *testing.T) StudyFn {
	wobble := map[int]float64{4: 1.5, 6: 1.07, 8: 0.96, 12: 1.02, 14: 0.99}
	return func(ctx context.Context, q Query) (*harness.Study, error) {
		cells := float64(q.Grid*q.Grid*q.Grid) * wobble[q.Grid]
		base := map[string]float64{
			"init": 3e-5 + 1e-6*cells,
			"a":    1e-4 + 2e-6*cells,
			"b":    2e-5 + 3e-6*cells,
			"c":    4e-6 * cells,
			"fin":  2e-5,
		}
		if q.Grid <= 6 {
			base["fin"] = 1e-4 - 0.3e-6*cells
		}
		delta := map[string]float64{core.Key([]string{"b", "c"}): -0.3e-6 * cells}
		if q.Grid > 8 {
			delta[core.Key([]string{"a", "b"})] = 1.1e-6 * cells
		}
		return synthEngine(t, base, delta, q.Trips, q.Chains), nil
	}
}

// TestSyntheticGolden pins the model-based backends' arithmetic: the
// deterministic fixtures of this package's other tests, every float
// compared bit for bit with what the pre-rewrite code produced.
func TestSyntheticGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString(goldenHeader)
	ctx := context.Background()

	for _, chains := range [][]int{{2}, {2, 3}} {
		lattice := make([]Query, 0, 3)
		for _, g := range []int{6, 8, 12} {
			lq := synthQuery(g)
			lq.Chains = chains
			lattice = append(lattice, lq)
		}
		ip := &Interpolated{Source: synthStudyFn(t), Lattice: lattice, Problem: synthProblem}
		target := synthQuery(10)
		target.Chains = chains
		pr, err := ip.Predict(ctx, target)
		if err != nil {
			t.Fatalf("interpolate chains %v: %v", chains, err)
		}
		renderPrediction(&b, fmt.Sprintf("interpolated synth 6,8,12 -> 10 chains %v", chains), pr)
	}

	for _, grids := range [][]int{{4, 6, 8, 12, 14}, {4, 6}} {
		var lattice []Query
		for _, g := range grids {
			lq := synthQuery(g)
			lq.Chains = []int{2, 3}
			lattice = append(lattice, lq)
		}
		ip := &Interpolated{Source: roughStudyFn(t), Lattice: lattice, Problem: synthProblem}
		target := synthQuery(10)
		target.Chains = []int{2, 3}
		pr, err := ip.Predict(ctx, target)
		if err != nil {
			t.Fatalf("interpolate rough lattice %v: %v", grids, err)
		}
		renderPrediction(&b, fmt.Sprintf("interpolated rough %v -> 10 chains [2 3]", grids), pr)
	}

	for _, q := range []Query{
		{Bench: "BT", Class: npb.ClassS, Procs: 4, Chains: []int{2, 5}, Trips: 60, Blocks: 3, Passes: 1},
		{Bench: "LU", Class: npb.ClassS, Procs: 4, Chains: []int{2, 4}, Trips: 60, Blocks: 3, Passes: 1},
	} {
		pr, err := benchAnalytic().Predict(ctx, q)
		if err != nil {
			t.Fatalf("analytic %s: %v", q.Key(), err)
		}
		renderPrediction(&b, "analytic "+q.Key(), pr)
	}

	golden := filepath.Join("testdata", "synthetic.golden")
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
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("model-based predictions drifted from testdata/synthetic.golden:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}
