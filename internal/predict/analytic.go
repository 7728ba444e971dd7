package predict

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/npb"
)

// Analytic defaults. The absolute numbers are deliberately coarse — the
// backend's value is structural (which windows cross a capacity boundary,
// and in which direction), and its confidence bands own the imprecision.
const (
	// DefaultBytesPerCell approximates the per-cell state of the NPB
	// solvers: five solution variables plus forcing terms at eight bytes
	// each.
	DefaultBytesPerCell = 40
	// DefaultBandwidth converts relative traffic-cost units to seconds.
	DefaultBandwidth = 1e9
)

// Analytic predicts with no measurements at all, Kerncraft/Afzal-style:
// each kernel gets a per-rank working-set profile from the problem
// geometry, the cache hierarchy prices its traffic, and window coupling
// values come from capacity overlap — chaining kernels makes their
// combined working set contend for the same levels, bounded by the
// fully-shared and fully-disjoint data scenarios
// (memmodel.PredictWindowCoupling). It can always answer; it never
// refuses. It sits last in a default chain as the floor every other
// backend degrades onto.
type Analytic struct {
	// Problem maps a query to its problem geometry.
	Problem func(Query) (npb.Problem, error)
	// App maps a query to the application structure (kernel ring).
	App func(Query) (core.App, error)
	// Hierarchy is the cache hierarchy priced against;
	// memmodel.DefaultHierarchy() when nil.
	Hierarchy memmodel.Hierarchy
	// BytesPerCell sizes the per-cell state; DefaultBytesPerCell when 0.
	BytesPerCell float64
	// Bandwidth converts cost units to seconds; DefaultBandwidth when 0.
	Bandwidth float64
	// BandFloor is the minimum relative band half-width;
	// DefaultBandFloor when zero.
	BandFloor float64
}

// Name implements Predictor.
func (a *Analytic) Name() string { return string(ProvAnalytic) }

func (a *Analytic) hierarchy() memmodel.Hierarchy {
	if a.Hierarchy != nil {
		return a.Hierarchy
	}
	return memmodel.DefaultHierarchy()
}

func (a *Analytic) bytesPerCell() float64 {
	if a.BytesPerCell > 0 {
		return a.BytesPerCell
	}
	return DefaultBytesPerCell
}

func (a *Analytic) bandwidth() float64 {
	if a.Bandwidth > 0 {
		return a.Bandwidth
	}
	return DefaultBandwidth
}

func (a *Analytic) bandFloor() float64 {
	if a.BandFloor > 0 {
		return a.BandFloor
	}
	return DefaultBandFloor
}

// Predict implements Predictor. Isolated times are priced traffic; a
// window's coupling value is the capacity-overlap bracket of its kernels'
// combined working set.
func (a *Analytic) Predict(ctx context.Context, q Query) (Prediction, error) {
	if a.Problem == nil || a.App == nil {
		return Prediction{}, fmt.Errorf("predict: analytic backend needs Problem and App builders")
	}
	prob, err := a.Problem(q)
	if err != nil {
		return Prediction{}, err
	}
	app, err := a.App(q)
	if err != nil {
		return Prediction{}, err
	}
	app.Trips = q.Trips
	app.Name = q.Workload()
	if procs := q.Procs; procs < 1 {
		return Prediction{}, fmt.Errorf("predict: analytic backend needs procs >= 1, got %d", procs)
	}

	h := a.hierarchy()
	cells := float64(prob.N1) * float64(prob.N2) * float64(prob.N3)
	perRank := cells / float64(q.Procs) * a.bytesPerCell()

	// Every kernel streams its per-rank working set once per execution:
	// the uniform-profile approximation. Kernel-specific reuse profiles
	// would slot in here without changing the composition.
	profile := memmodel.KernelProfile{WorkingSet: perRank, Traffic: perRank}
	isolated := make(map[string]float64)
	for _, k := range app.KernelsSorted() {
		isolated[k] = profile.Traffic * h.CostFor(profile.WorkingSet) / a.bandwidth()
	}

	floor := a.bandFloor()
	st, windows, maxSpread, err := synthesize(app, isolated, 0, q.Chains, func(w []string) (c, lo, hi float64, err error) {
		profs := make([]memmodel.KernelProfile, len(w))
		for i, k := range w {
			p := profile
			p.Name = k
			profs[i] = p
		}
		c, lo, hi = memmodel.PredictWindowCoupling(h, profs)
		// The scenario spread collapses to a point when every scenario
		// lands in the same cache level; the band floor keeps the stated
		// uncertainty honest there — the model's coupling is coarse even
		// when its capacity verdict is unambiguous.
		if c > 0 {
			if wide := c * (1 - floor); wide < lo {
				lo = wide
			}
			if wide := c * (1 + floor); wide > hi {
				hi = wide
			}
		}
		return c, lo, hi, nil
	})
	if err != nil {
		return Prediction{}, err
	}
	return modelled(st, ProvAnalytic, windows, floor+maxSpread), nil
}

// Peek implements Peeker: the analytic answer is arithmetic on the query,
// so it is always given without waiting.
func (a *Analytic) Peek(ctx context.Context, q Query) (Prediction, bool) {
	pr, err := a.Predict(ctx, q)
	return pr, err == nil
}
