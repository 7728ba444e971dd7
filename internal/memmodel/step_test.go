package memmodel

import (
	"math"
	"testing"
)

func sweep(cs ...float64) []SweepPoint {
	pts := make([]SweepPoint, len(cs))
	for i, c := range cs {
		pts[i] = SweepPoint{Bytes: 1 << (10 + i), C: c}
	}
	return pts
}

// plateauMeans fits a step model over a sweep's sizes and couplings and
// returns each segment's mean: the per-plateau summary of the sweep.
func plateauMeans(t *testing.T, pts []SweepPoint, threshold float64) []float64 {
	t.Helper()
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = float64(p.Bytes), p.C
	}
	m, err := FitStep(xs, ys, threshold)
	if err != nil {
		t.Fatalf("FitStep: %v", err)
	}
	means := make([]float64, len(m.Segments))
	for i, seg := range m.Segments {
		means[i] = seg.Mean
	}
	return means
}

// A flat C(W) series — the working set never crosses a capacity boundary
// — must report zero transitions and exactly one plateau, through both
// the SweepPoint detector and the generic series form.
func TestTransitionsFlatSeries(t *testing.T) {
	pts := sweep(1.01, 1.00, 1.02, 1.01, 1.00)
	if got := Transitions(pts, 0.08); len(got) != 0 {
		t.Fatalf("Transitions(flat) = %v, want none", got)
	}
	if got := TransitionsSeries([]float64{1.01, 1.00, 1.02, 1.01, 1.00}, 0.08); len(got) != 0 {
		t.Fatalf("TransitionsSeries(flat) = %v, want none", got)
	}
	if got := plateauMeans(t, pts, 0.08); len(got) != 1 {
		t.Fatalf("plateaus(flat) = %v, want exactly one plateau", got)
	}
}

// A single-sample sweep has no adjacent pair to transition across: no
// transitions, one plateau equal to the sample, and a step model that
// answers that value everywhere.
func TestTransitionsSingleSample(t *testing.T) {
	pts := sweep(1.37)
	if got := Transitions(pts, 0.08); len(got) != 0 {
		t.Fatalf("Transitions(single) = %v, want none", got)
	}
	plats := plateauMeans(t, pts, 0.08)
	if len(plats) != 1 || plats[0] != 1.37 {
		t.Fatalf("plateaus(single) = %v, want [1.37]", plats)
	}
	m, err := FitStep([]float64{1024}, []float64{1.37}, 0.08)
	if err != nil {
		t.Fatalf("FitStep(single): %v", err)
	}
	for _, x := range []float64{0, 1024, 1 << 30} {
		mean, lo, hi := m.Eval(x)
		if mean != 1.37 || lo != 1.37 || hi != 1.37 {
			t.Fatalf("Eval(%g) = %g [%g, %g], want 1.37 with zero spread", x, mean, lo, hi)
		}
	}
}

// An empty sweep must not panic and must report nothing.
func TestTransitionsEmptySweep(t *testing.T) {
	if got := Transitions(nil, 0.08); got != nil {
		t.Fatalf("Transitions(nil) = %v, want nil", got)
	}
	if _, err := FitStep(nil, nil, 0.08); err == nil {
		t.Fatal("FitStep(nil) should error")
	}
}

// Non-monotonic noise around a plateau boundary: sub-threshold wiggle
// inside each plateau must not register, while the one real capacity jump
// must — the detector counts major value changes, not noise.
func TestTransitionsNoiseAroundBoundary(t *testing.T) {
	// Plateau near 1.0 with ±0.03 non-monotonic noise, then a jump to a
	// plateau near 1.5 with the same style of noise right at the boundary.
	cs := []float64{1.00, 1.03, 0.98, 1.02, 1.52, 1.47, 1.51, 1.49}
	pts := sweep(cs...)
	got := Transitions(pts, 0.08)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("Transitions(noisy boundary) = %v, want [4]", got)
	}
	plats := plateauMeans(t, pts, 0.08)
	if len(plats) != 2 {
		t.Fatalf("plateaus(noisy boundary) = %v, want two plateaus", plats)
	}
	if math.Abs(plats[0]-1.0075) > 1e-9 || math.Abs(plats[1]-1.4975) > 1e-9 {
		t.Fatalf("plateau means = %v, want [1.0075, 1.4975]", plats)
	}
}

// The fitted step model must evaluate to the containing plateau's mean
// and spread, extend the edge plateaus beyond the fitted range, and
// reject malformed axes.
func TestFitStepEval(t *testing.T) {
	xs := []float64{100, 200, 300, 400, 500, 600}
	ys := []float64{1.00, 1.02, 0.98, 1.50, 1.54, 1.52}
	m, err := FitStep(xs, ys, 0.1)
	if err != nil {
		t.Fatalf("FitStep: %v", err)
	}
	if len(m.Segments) != 2 {
		t.Fatalf("segments = %+v, want 2", m.Segments)
	}
	mean, lo, hi := m.Eval(250)
	if math.Abs(mean-1.0) > 1e-9 || lo != 0.98 || hi != 1.02 {
		t.Fatalf("Eval(250) = %g [%g, %g], want 1.0 [0.98, 1.02]", mean, lo, hi)
	}
	// Below the fitted range: first plateau. At and above the boundary and
	// past the end: second plateau.
	if mean, _, _ := m.Eval(10); math.Abs(mean-1.0) > 1e-9 {
		t.Fatalf("Eval(10) = %g, want the first plateau", mean)
	}
	for _, x := range []float64{400, 550, 1e9} {
		mean, lo, hi := m.Eval(x)
		if math.Abs(mean-1.52) > 1e-9 || lo != 1.50 || hi != 1.54 {
			t.Fatalf("Eval(%g) = %g [%g, %g], want 1.52 [1.50, 1.54]", x, mean, lo, hi)
		}
	}

	if _, err := FitStep([]float64{1, 2}, []float64{1}, 0.1); err == nil {
		t.Fatal("FitStep should reject mismatched axes")
	}
	if _, err := FitStep([]float64{2, 1}, []float64{1, 1}, 0.1); err == nil {
		t.Fatal("FitStep should reject a descending x axis")
	}
}

func TestHierarchyCostFor(t *testing.T) {
	h := DefaultHierarchy()
	if c := h.CostFor(16 << 10); c != 1 {
		t.Fatalf("CostFor(16K) = %g, want the L1 cost", c)
	}
	if c := h.CostFor(512 << 10); c != 2.5 {
		t.Fatalf("CostFor(512K) = %g, want the L2 cost", c)
	}
	if c := h.CostFor(1 << 30); c != 16 {
		t.Fatalf("CostFor(1G) = %g, want the DRAM cost", c)
	}
	var empty Hierarchy
	if c := empty.CostFor(1); c != 1 {
		t.Fatalf("empty hierarchy CostFor = %g, want 1", c)
	}
}

// The analytic coupling predictor must answer c = 1 with zero band width
// when no capacity boundary is crossed, and a destructive (> 1) upper
// bound when the disjoint union spills to a slower level.
func TestPredictWindowCoupling(t *testing.T) {
	h := DefaultHierarchy()

	tiny := []KernelProfile{
		{Name: "A", WorkingSet: 4 << 10, Traffic: 4 << 10},
		{Name: "B", WorkingSet: 4 << 10, Traffic: 4 << 10},
	}
	c, lo, hi := PredictWindowCoupling(h, tiny)
	if c != 1 || lo != 1 || hi != 1 {
		t.Fatalf("tiny pair = %g [%g, %g], want exactly 1", c, lo, hi)
	}

	// Each kernel fits L1 alone; the disjoint union spills to L2, the
	// fully shared union stays in L1: destructive upper bound, neutral
	// lower bound.
	boundary := []KernelProfile{
		{Name: "A", WorkingSet: 24 << 10, Traffic: 24 << 10},
		{Name: "B", WorkingSet: 24 << 10, Traffic: 24 << 10},
	}
	c, lo, hi = PredictWindowCoupling(h, boundary)
	if !(lo == 1 && hi > 1) {
		t.Fatalf("boundary pair = %g [%g, %g], want lo=1 and hi>1", c, lo, hi)
	}
	if !(c > lo && c < hi) {
		t.Fatalf("midpoint %g outside band [%g, %g]", c, lo, hi)
	}

	if c, lo, hi := PredictWindowCoupling(h, nil); c != 1 || lo != 1 || hi != 1 {
		t.Fatalf("empty window = %g [%g, %g], want 1", c, lo, hi)
	}
}
