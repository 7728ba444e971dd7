package stats

import (
	"math"
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

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Known sample variance: mean=5, squared devs sum = 32, /(n-1)=32/7.
	if got, want := Variance(xs), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got, want := StdDev(xs), math.Sqrt(32.0/7.0); !almostEqual(got, want, 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if got := Variance([]float64{42}); got != 0 {
		t.Errorf("Variance of single sample = %v, want 0", got)
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

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("Min/Max of empty should be 0")
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
		return got >= Min(xs)-1e-9 && got <= Max(xs)+1e-9
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

func TestWeightedMean(t *testing.T) {
	// The paper's alpha coefficient for BT: weighted average of two
	// coupling values by their window times.
	got, err := WeightedMean([]float64{0.8, 1.2}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := (0.8*3 + 1.2*1) / 4; !almostEqual(got, want, 1e-12) {
		t.Errorf("WeightedMean = %v, want %v", got, want)
	}

	if _, err := WeightedMean([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := WeightedMean(nil, nil); err == nil {
		t.Error("empty inputs should error")
	}
	if _, err := WeightedMean([]float64{1, 2}, []float64{1, -1}); err == nil {
		t.Error("zero-sum weights should error")
	}
}

func TestWeightedMeanEqualWeightsIsMeanProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		ws := make([]float64, len(xs))
		for i := range ws {
			ws[i] = 1
		}
		got, err := WeightedMean(xs, ws)
		if err != nil {
			return false
		}
		return almostEqual(got, Mean(xs), 1e-6*(1+math.Abs(Mean(xs))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("unexpected summary: %+v", s)
	}
}
