package memmodel

import (
	"fmt"
	"math"
)

// This file turns the paper's §4.1 finite-transition observation into a
// predictive form. TransitionsSeries detects the cache-capacity
// boundaries in a measured sweep (Transitions applies it to a sweep's
// couplings); StepModel fits the same structure — a piecewise-constant
// function with a small number of plateaus — over any (x, value) series
// so a coupling value can be *predicted* at an unmeasured working-set
// size, with the plateau's spread as the confidence band. Hierarchy and
// KernelProfile go one step further and predict the coupling with no
// measurements at all, from cache-capacity overlap (the
// Kerncraft/Afzal-style analytic model).

// TransitionThreshold is the change in a coupling value between two
// neighbouring sweep points that counts as a cache-capacity transition:
// the §4.1 table counts and the interpolated backend's step model splits
// its plateaus at this one value.
const TransitionThreshold = 0.08

// TransitionsSeries returns the indices i (>= 1) where the series value
// differs from the previous point's by more than threshold, an absolute
// change: the one transition rule, which Transitions and FitStep both
// apply.
func TransitionsSeries(values []float64, threshold float64) []int {
	var idx []int
	for i := 1; i < len(values); i++ {
		if math.Abs(values[i]-values[i-1]) > threshold {
			idx = append(idx, i)
		}
	}
	return idx
}

// Segment is one plateau of a fitted step model: it begins at StartX and
// holds the plateau's mean value, with [Lo, Hi] the observed spread.
type Segment struct {
	StartX float64
	Mean   float64
	Lo     float64
	Hi     float64
}

// StepModel is a piecewise-constant fit of a series over an ascending x
// axis: the paper's finite-transition structure made evaluable. Segments
// are plateau summaries split at the detected transitions.
type StepModel struct {
	Segments []Segment
}

// FitStep fits a step model to the series: transitions (|Δy| > threshold)
// split the series into plateaus, each summarized by its mean and min/max
// spread. xs must be ascending and the same length as ys, with at least
// one point — a single sample fits a one-plateau model with zero spread.
func FitStep(xs, ys []float64, threshold float64) (*StepModel, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("memmodel: FitStep needs at least one point")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("memmodel: FitStep axis mismatch: %d xs, %d ys", len(xs), len(ys))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return nil, fmt.Errorf("memmodel: FitStep x axis must be ascending (x[%d]=%g < x[%d]=%g)", i, xs[i], i-1, xs[i-1])
		}
	}
	trans := TransitionsSeries(ys, threshold)
	m := &StepModel{}
	start := 0
	for _, end := range append(trans, len(ys)) {
		if end == start {
			continue
		}
		seg := Segment{StartX: xs[start], Lo: ys[start], Hi: ys[start]}
		var sum float64
		for _, v := range ys[start:end] {
			sum += v
			if v < seg.Lo {
				seg.Lo = v
			}
			if v > seg.Hi {
				seg.Hi = v
			}
		}
		seg.Mean = sum / float64(end-start)
		m.Segments = append(m.Segments, seg)
		start = end
	}
	return m, nil
}

// Eval returns the plateau mean and [lo, hi] spread at x: the last
// plateau whose StartX <= x, clamped to the first plateau below the
// fitted range and the last above it (the finite-transition claim is
// exactly that plateaus extend until the next capacity boundary).
func (m *StepModel) Eval(x float64) (mean, lo, hi float64) {
	seg := m.Segments[0]
	for _, s := range m.Segments[1:] {
		if s.StartX > x {
			break
		}
		seg = s
	}
	return seg.Mean, seg.Lo, seg.Hi
}

// CacheLevel is one level of a cache hierarchy for the analytic coupling
// model: everything residing within Bytes is served at CostPerByte
// (relative units; only ratios matter for coupling values).
type CacheLevel struct {
	Name        string
	Bytes       float64
	CostPerByte float64
}

// Hierarchy is an ordered cache hierarchy, smallest level first, ending
// in an unbounded memory level.
type Hierarchy []CacheLevel

// DefaultHierarchy returns a laptop-class three-level hierarchy with
// relative per-byte costs. The absolute numbers are deliberately coarse —
// the analytic backend's confidence bands own the imprecision.
func DefaultHierarchy() Hierarchy {
	return Hierarchy{
		{Name: "L1", Bytes: 32 << 10, CostPerByte: 1},
		{Name: "L2", Bytes: 1 << 20, CostPerByte: 2.5},
		{Name: "L3", Bytes: 32 << 20, CostPerByte: 6},
		{Name: "DRAM", Bytes: math.Inf(1), CostPerByte: 16},
	}
}

// CostFor returns the per-byte cost of streaming a working set of the
// given size: the cost of the smallest level that holds it.
func (h Hierarchy) CostFor(bytes float64) float64 {
	for _, l := range h {
		if bytes <= l.Bytes {
			return l.CostPerByte
		}
	}
	if len(h) == 0 {
		return 1
	}
	return h[len(h)-1].CostPerByte
}

// KernelProfile is the analytic model's view of one kernel: how many
// bytes it keeps live (WorkingSet) and how many it moves per execution
// (Traffic). Profiles are per rank — cache capacity is contended per
// processor, which is why coupling transitions track the per-processor
// working set in the paper.
type KernelProfile struct {
	Name       string
	WorkingSet float64
	Traffic    float64
}

// PredictWindowCoupling predicts a window's coupling value C_S from
// cache-capacity overlap, Afzal-style: chaining the kernels makes the
// combined working set contend for the same levels. Two scenarios bound
// the answer — fully shared data (combined set = max working set, the
// constructive/neutral case) and fully disjoint data (combined = sum,
// the mutual-eviction case) — and the returned c is their midpoint with
// [lo, hi] the scenario spread. A window whose both scenarios stay within
// one level predicts c = 1 exactly: no capacity boundary is crossed, so
// no interaction is modeled.
func PredictWindowCoupling(h Hierarchy, profs []KernelProfile) (c, lo, hi float64) {
	if len(profs) == 0 {
		return 1, 1, 1
	}
	var iso, sumWS, maxWS, traffic float64
	for _, p := range profs {
		iso += p.Traffic * h.CostFor(p.WorkingSet)
		sumWS += p.WorkingSet
		traffic += p.Traffic
		if p.WorkingSet > maxWS {
			maxWS = p.WorkingSet
		}
	}
	if iso <= 0 {
		return 1, 1, 1
	}
	disjoint := traffic * h.CostFor(sumWS)
	shared := traffic * h.CostFor(maxWS)
	cd := disjoint / iso
	cs := shared / iso
	lo, hi = cs, cd
	if lo > hi {
		lo, hi = hi, lo
	}
	return (lo + hi) / 2, lo, hi
}
