package harness

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/bt"
	"repro/internal/npb/lu"
)

// btWorkload builds a tiny real BT workload for integration tests.
func btWorkload(t *testing.T, n, procs int) *NPBWorkload {
	t.Helper()
	factory, err := bt.Factory(bt.Config{Problem: npb.TinyProblem(n, 1), Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	pre, loop, post := bt.Benchmark.Pre, bt.Benchmark.Loop, bt.Benchmark.Post
	return &NPBWorkload{
		WorkloadName: fmt.Sprintf("BT.tiny%d.%d", n, procs),
		Factory:      factory,
		Pre:          pre, Loop: loop, Post: post,
		Procs:     procs,
		WorldOpts: []mpi.Option{mpi.WithRecvTimeout(60 * time.Second)},
	}
}

func TestEndToEndStudyOnRealBT(t *testing.T) {
	// A complete coupling study against the real (tiny) BT benchmark:
	// verifies the full wiring — world spawn, kernel dispatch, window
	// loops, coupling math — produces a structurally sound study.
	w := btWorkload(t, 8, 4)
	study, err := RunStudy(w, 3, []int{2, 5}, Options{Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if study.Actual <= 0 {
		t.Errorf("actual = %v", study.Actual)
	}
	if len(study.Measurements.Isolated) != 7 {
		t.Errorf("isolated measurements = %d, want 7", len(study.Measurements.Isolated))
	}
	// 5 pairwise windows + 1 full ring.
	if len(study.Measurements.Window) != 6 {
		t.Errorf("window measurements = %d, want 6", len(study.Measurements.Window))
	}
	for k, v := range study.Measurements.Isolated {
		if v <= 0 || math.IsNaN(v) {
			t.Errorf("isolated %s = %v", k, v)
		}
	}
	for _, L := range []int{2, 5} {
		p, ok := study.Couplings[L]
		if !ok {
			t.Fatalf("missing coupling prediction L=%d", L)
		}
		if p.Predicted <= 0 || math.IsNaN(p.RelErr) {
			t.Errorf("L=%d prediction %v relErr %v", L, p.Predicted, p.RelErr)
		}
		det := study.Details[L]
		for _, wc := range det.Couplings {
			if wc.C <= 0 || math.IsNaN(wc.C) {
				t.Errorf("window %s coupling %v", wc.Key(), wc.C)
			}
		}
		for k, c := range det.Coefficients {
			if c <= 0 || math.IsNaN(c) {
				t.Errorf("coefficient %s = %v", k, c)
			}
		}
	}
	if study.Summation.Predicted <= 0 {
		t.Errorf("summation = %v", study.Summation.Predicted)
	}
}

func TestEndToEndStudyOnRealLUWithNetModel(t *testing.T) {
	// The same wiring through LU with the interconnect model attached:
	// covers the modeled-latency path end to end.
	factory, err := lu.Factory(lu.Config{Problem: npb.TinyProblem(8, 1), Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	pre, loop, post := lu.Benchmark.Pre, lu.Benchmark.Loop, lu.Benchmark.Post
	w := &NPBWorkload{
		WorkloadName: "LU.tiny.2+net",
		Factory:      factory,
		Pre:          pre, Loop: loop, Post: post,
		Procs: 2,
		WorldOpts: []mpi.Option{
			mpi.WithNetModel(mpi.NetModel{Latency: 50 * time.Microsecond}),
			mpi.WithRecvTimeout(60 * time.Second),
		},
	}
	study, err := RunStudy(w, 2, []int{3}, Options{Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if study.Actual <= 0 {
		t.Errorf("actual = %v", study.Actual)
	}
	// The sweeps exchange per-plane messages: with 50µs per message the
	// SSOR_LT isolated time must exceed the pure-compute ADD-scale
	// kernels by a noticeable margin on an 8³ grid.
	lt := study.Measurements.Isolated[lu.KSsorLT]
	rs := study.Measurements.Isolated[lu.KSsorRS]
	if lt <= rs {
		t.Logf("note: SSOR_LT (%v) not slower than SSOR_RS (%v) despite modeled latency", lt, rs)
	}
}

func TestNPBWorkloadKernelsAccessors(t *testing.T) {
	w := btWorkload(t, 8, 1)
	pre, loop, post := w.Kernels()
	if len(pre) != 1 || len(loop) != 5 || len(post) != 1 {
		t.Errorf("kernel groups %v/%v/%v", pre, loop, post)
	}
	if w.Name() != "BT.tiny8.1" {
		t.Errorf("Name = %q", w.Name())
	}
}

func TestStudyActualRunsMedian(t *testing.T) {
	// With ActualRuns=3 the study runs the app three times and reports
	// the median; just verify it completes and is positive on a real
	// workload (the median math itself is unit-tested in stats).
	w := btWorkload(t, 8, 1)
	study, err := RunStudy(w, 2, []int{2}, Options{Blocks: 2, ActualRuns: 3})
	if err != nil {
		t.Fatal(err)
	}
	if study.Actual <= 0 {
		t.Errorf("actual = %v", study.Actual)
	}
}
