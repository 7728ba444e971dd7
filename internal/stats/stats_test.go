package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
		{[]float64{0.5, 0.25, 0.25}, 1.0 / 3},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestKahanSumPrecision(t *testing.T) {
	// Summing 1e8 copies of 0.1 naively drifts; Kahan stays exact to ~ulp.
	// Use a smaller but still precision-challenging series.
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = 0.1
	}
	if got, want := Sum(xs), 10000.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum of 1e5 * 0.1 = %.15f, want %v", got, want)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated its input: %v", xs)
	}
}

func TestTrimmedMean(t *testing.T) {
	// One huge outlier among nine ones: 10% trim on 10 samples removes
	// exactly the top and bottom sample.
	xs := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1000}
	if got := TrimmedMean(xs, 0.1); got != 1 {
		t.Errorf("TrimmedMean with outlier = %v, want 1", got)
	}
	// Zero trim is the plain mean.
	if got, want := TrimmedMean(xs, 0), Mean(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("TrimmedMean(0) = %v, want mean %v", got, want)
	}
	// Degenerate trims clamp instead of panicking.
	if got := TrimmedMean([]float64{7}, 0.9); got != 7 {
		t.Errorf("TrimmedMean single sample = %v, want 7", got)
	}
	if got := TrimmedMean(nil, 0.1); got != 0 {
		t.Errorf("TrimmedMean(nil) = %v, want 0", got)
	}
}

func TestTrimmedMeanWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, fracRaw float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		frac := math.Mod(math.Abs(fracRaw), 1)
		got := TrimmedMean(xs, frac)
		return got >= slices.Min(xs)-1e-9 && got <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRelativeError(t *testing.T) {
	cases := []struct {
		pred, actual, want float64
	}{
		{110, 100, 0.10},
		{90, 100, 0.10},
		{100, 100, 0},
		{-90, -100, 0.10},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := RelativeError(c.pred, c.actual); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("RelativeError(%v, %v) = %v, want %v", c.pred, c.actual, got, c.want)
		}
	}
	if !math.IsInf(RelativeError(1, 0), 1) {
		t.Error("RelativeError(1, 0) should be +Inf")
	}
}
