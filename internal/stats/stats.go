// Package stats provides the small statistical toolkit used throughout the
// coupling framework: compensated sums, means, medians and trimmed means
// over repeated measurements, relative error for comparing predictions
// against measured times, and the text tables the reports render.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs.
// It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Sum returns the sum of xs using Kahan compensated summation so that long
// series of small timing samples do not lose precision.
func Sum(xs []float64) float64 {
	var k Kahan
	for _, x := range xs {
		k.Add(x)
	}
	return k.Sum()
}

// Kahan is a streaming compensated accumulator: Add folds terms in,
// carrying the rounding error of each addition forward so the final Sum is
// accurate to within a few ulps regardless of term count or ordering
// magnitude. It is the fix the floatsum analyzer (cmd/kcvet) suggests for
// naive `s += x` loops. The zero value is an empty sum.
type Kahan struct {
	sum, comp float64
}

// Add folds x into the running sum.
func (k *Kahan) Add(x float64) {
	y := x - k.comp
	t := k.sum + y
	k.comp = (t - k.sum) - y
	k.sum = t
}

// Sum returns the compensated total of everything added so far.
func (k *Kahan) Sum() float64 { return k.sum }

// Median returns the median of xs. It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// TrimmedMean returns the mean of xs after discarding the frac fraction of
// samples from each tail (so frac=0.1 discards the lowest 10% and highest
// 10%). Timing measurements on a shared machine have a heavy upper tail from
// scheduler interference; the paper's methodology of averaging 50 runs maps
// onto a trimmed mean here. frac is clamped to [0, 0.5); at least one sample
// is always retained.
func TrimmedMean(xs []float64, frac float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if frac < 0 {
		frac = 0
	}
	if frac >= 0.5 {
		frac = 0.499
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(float64(n) * frac)
	if 2*k >= n {
		k = (n - 1) / 2
	}
	return Mean(s[k : n-k])
}

// RelativeError returns |predicted-actual| / |actual|.
// It returns +Inf when actual == 0 and predicted != 0, and 0 when both are 0.
func RelativeError(predicted, actual float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}
