package predict

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/linalg"
	"repro/internal/memmodel"
	"repro/internal/npb"
	"repro/internal/obs"
)

// transitionThreshold is the relative coupling change that counts as a
// cache-capacity transition when fitting the step model — the same scale
// memmodel's sweep tests use.
const transitionThreshold = 0.08

// DefaultBandFloor is the minimum relative half-width of a model-based
// confidence band: even a perfectly fitting lattice never claims better
// than ±25%, because the backend extrapolates structure, not noise.
const DefaultBandFloor = 0.25

// Interpolated answers a query from a lattice of already-measured
// neighboring configurations, with no new measurement: per-kernel isolated
// times come from least-squares scaling models calibrated on the lattice,
// and per-window coupling values come from the paper's §4.1
// finite-transition observation — C_S is piecewise-constant in the
// per-processor working set, so a step model fitted over the lattice's
// coupling series evaluates at the target's working-set size and the
// containing plateau's spread becomes the confidence band. Borrow takes
// the same coupling values for a target whose isolated kernels and
// application were measured.
type Interpolated struct {
	// Source resolves a lattice point to its study; a point whose study
	// cannot be loaded (cache miss) is skipped, not fatal.
	Source StudyFn
	// Lattice lists the candidate seed configurations, each read at the
	// query's chain lengths (their own Chains are ignored). Points
	// matching the target's key, or a different benchmark, are ignored.
	Lattice []Query
	// Problem maps a query to its problem geometry, for the model
	// parameters and the working-set axis.
	Problem func(Query) (npb.Problem, error)
	// BandFloor is the minimum relative band half-width;
	// DefaultBandFloor when zero.
	BandFloor float64
}

// Name implements Predictor.
func (ip *Interpolated) Name() string { return string(ProvInterpolated) }

// latticePoint is one loaded lattice study with its place on the two
// axes the models are fitted over.
type latticePoint struct {
	q  Query
	st *harness.Study
	// cells is the global cell count, the isolated-time axis.
	cells float64
	// x is the per-rank cell count — the working-set axis the step model
	// is fitted over (cache capacity is contended per processor).
	x float64
}

// cellsOf is a problem's global cell count.
func cellsOf(p npb.Problem) float64 { return float64(p.N1) * float64(p.N2) * float64(p.N3) }

// Predict implements Predictor. It refuses (ErrUnanswerable) when fewer
// than two lattice points are loadable for the target's benchmark — one
// point cannot distinguish a plateau from a transition.
func (ip *Interpolated) Predict(ctx context.Context, q Query) (Prediction, error) {
	pts, targetCells, err := ip.load(ctx, q, 2)
	if err != nil {
		return Prediction{}, err
	}
	obs.TraceFrom(ctx).Annotate("lattice", fmt.Sprintf("%d points", len(pts)))

	// The target app keeps the lattice's kernel structure — same
	// benchmark, same ring — with the target's trip count.
	app := pts[0].st.App
	app.Trips = q.Trips
	app.Name = q.Workload()

	isolated, maxResid, err := isolatedTimes(app, pts, targetCells)
	if err != nil {
		return Prediction{}, err
	}
	st, windows, maxSpread, err := synthesize(app, isolated, 0, q.Chains, stepCoupling(pts, targetCells/float64(q.Procs)))
	if err != nil {
		return Prediction{}, err
	}
	return modelled(st, ProvInterpolated, windows, ip.bandFloor()+maxResid+maxSpread), nil
}

// Borrow is the experiment reduction the paper's future-work section asks
// for. Coupling values move through finitely many transitions across
// problem sizes and rank counts while isolated times change with every
// configuration, so a study of q's configuration measured with no chain
// lengths needs only the lattice's windows. Borrow loads the lattice
// first — one loadable point is enough, and lends its own C unchanged —
// so a lattice it cannot use is refused before the target is measured.
// The returned lend keeps the target's isolated times, actual time,
// provenance, health and execution statistics, and takes every window's
// C from the lattice's step model (stepCoupling).
func (ip *Interpolated) Borrow(ctx context.Context, q Query) (lend func(target *harness.Study) (*harness.Study, error), err error) {
	pts, targetCells, err := ip.load(ctx, q, 1)
	if err != nil {
		return nil, err
	}
	couplings := stepCoupling(pts, targetCells/float64(q.Procs))
	return func(target *harness.Study) (*harness.Study, error) {
		st, _, _, err := synthesize(target.App, target.Measurements.Isolated, target.Actual, q.Chains, couplings)
		if err != nil {
			return nil, err
		}
		st.Provenance, st.Health, st.Exec = target.Provenance, target.Health, target.Exec
		return st, nil
	}, nil
}

// stepCoupling is the one rule by which a coupling value is borrowed: a
// window's C at every lattice point, ordered by per-rank working set, is
// fitted with the §4.1 step model and evaluated at the target's working
// set x; the containing plateau's spread is the band — the
// finite-transition model's own uncertainty. A lattice point that lacks
// the window, or holds a C that is not positive, is a refusal naming the
// point and the window.
func stepCoupling(pts []latticePoint, x float64) couplingSource {
	xs := make([]float64, len(pts))
	for i, pt := range pts {
		xs[i] = pt.x
	}
	return func(w []string) (c, lo, hi float64, err error) {
		cs := make([]float64, len(pts))
		for i, pt := range pts {
			wc, err := pt.st.Measurements.CouplingOf(w)
			if err != nil {
				return 0, 0, 0, Unanswerable(fmt.Errorf(
					"predict: lattice study %s has no coupling for window %s: %w", pt.q.Key(), core.Key(w), err))
			}
			if wc.C <= 0 {
				return 0, 0, 0, Unanswerable(fmt.Errorf(
					"predict: lattice study %s holds coupling %g for window %s, want > 0", pt.q.Key(), wc.C, core.Key(w)))
			}
			cs[i] = wc.C
		}
		step, err := memmodel.FitStep(xs, cs, transitionThreshold)
		if err != nil {
			return 0, 0, 0, err
		}
		c, lo, hi = step.Eval(x)
		return c, lo, hi, nil
	}
}

func (ip *Interpolated) bandFloor() float64 {
	if ip.BandFloor > 0 {
		return ip.BandFloor
	}
	return DefaultBandFloor
}

// load resolves the usable lattice points, sorted ascending by working-set
// axis, and the target's global cell count. Every point is read at q's
// chain lengths, and the target itself is excluded so held-out validation
// stays honest. A point whose study cannot be loaded (a cache miss) is
// skipped; fewer than need points is a refusal that wraps why each was.
func (ip *Interpolated) load(ctx context.Context, q Query, need int) ([]latticePoint, float64, error) {
	if ip.Problem == nil {
		return nil, 0, fmt.Errorf("predict: interpolated backend needs a Problem builder")
	}
	tkey := q.Key()
	pts := make([]latticePoint, 0, len(ip.Lattice))
	var missed []error
	for _, lq := range ip.Lattice {
		lq.Chains = q.Chains
		if lq.Bench != q.Bench || lq.Key() == tkey {
			continue
		}
		prob, err := ip.Problem(lq)
		if err != nil {
			return nil, 0, fmt.Errorf("predict: lattice point %s: %w", lq.Key(), err)
		}
		st, err := ip.Source(ctx, lq)
		if err != nil {
			missed = append(missed, fmt.Errorf("lattice point %s: %w", lq.Key(), err))
			continue
		}
		cells := cellsOf(prob)
		pts = append(pts, latticePoint{q: lq, st: st, cells: cells, x: cells / float64(lq.Procs)})
	}
	if len(pts) < need {
		return nil, 0, Unanswerable(errors.Join(append([]error{fmt.Errorf(
			"predict: interpolation needs >= %d cached lattice studies for %s, have %d", need, q.Bench, len(pts))}, missed...)...))
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	prob, err := ip.Problem(q)
	if err != nil {
		return nil, 0, err
	}
	return pts, cellsOf(prob), nil
}

// isolatedTimes fits one scaling model per kernel to the lattice's
// isolated measurements and evaluates it at the target, returning the
// modelled isolated times and the largest relative residual of any fit at
// any lattice point — the model's own error estimate, folded into the
// band.
//
// The model is t = c₀ + c₁·cells, total cells rather than cells per rank:
// the simulated ranks are goroutines time-sharing the host's CPUs, so
// kernel wall-clock follows total work, not per-rank work.
func isolatedTimes(app core.App, pts []latticePoint, targetCells float64) (map[string]float64, float64, error) {
	isolated := make(map[string]float64)
	cells := make([]float64, len(pts))
	secs := make([]float64, len(pts))
	var maxResid float64
	for _, k := range app.KernelsSorted() {
		for i, pt := range pts {
			iso, ok := pt.st.Measurements.Isolated[k]
			if !ok {
				return nil, 0, Unanswerable(fmt.Errorf(
					"predict: lattice study %s has no isolated measurement for kernel %q", pt.q.Key(), k))
			}
			cells[i], secs[i] = pt.cells, iso
		}
		coef, err := fitLine(cells, secs)
		if err != nil {
			return nil, 0, Unanswerable(fmt.Errorf("predict: kernel %q: %w", k, err))
		}
		for i := range pts {
			// A zero measurement has no relative residual (±Inf or NaN).
			if a := math.Abs((coef[0] + coef[1]*cells[i] - secs[i]) / secs[i]); a > maxResid && !math.IsInf(a, 1) {
				maxResid = a
			}
		}
		v := coef[0] + coef[1]*targetCells
		// A least-squares extrapolation can undershoot into nonsense;
		// clamp to a tiny positive time so the composition algebra's
		// non-negativity invariants hold.
		if v <= 0 {
			v = 1e-12
		}
		isolated[k] = v
	}
	return isolated, maxResid, nil
}

// fitLine fits y = c₀ + c₁·x by ordinary least squares: the normal
// equations (XᵀX)·c = Xᵀy, solved densely. It fails on a singular design —
// every x the same, so a fixed cost and a per-cell one cannot be told
// apart.
func fitLine(xs, ys []float64) ([]float64, error) {
	xtx := [][]float64{{0, 0}, {0, 0}}
	xty := []float64{0, 0}
	for n, x := range xs {
		row := [2]float64{1, x}
		for i := range row {
			for j := range row {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * ys[n]
		}
	}
	coef, err := linalg.DenseSolve(xtx, xty)
	if err != nil {
		return nil, fmt.Errorf("singular design — the lattice cannot tell a fixed cost from a per-cell one: %w", err)
	}
	return coef, nil
}
