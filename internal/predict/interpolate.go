package predict

import (
	"context"
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
// containing plateau's spread becomes the confidence band.
type Interpolated struct {
	// Source resolves a lattice point to its study; a point whose study
	// cannot be loaded (cache miss) is skipped, not fatal.
	Source StudyFn
	// Lattice lists the candidate seed configurations. Points matching
	// the target's key, or a different benchmark, are ignored.
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
	if ip.Problem == nil {
		return Prediction{}, fmt.Errorf("predict: interpolated backend needs a Problem builder")
	}
	pts, err := ip.load(ctx, q)
	if err != nil {
		return Prediction{}, err
	}
	if len(pts) < 2 {
		return Prediction{}, Unanswerable(fmt.Errorf(
			"predict: interpolation needs >= 2 cached lattice studies for %s, have %d", q.Bench, len(pts)))
	}
	obs.TraceFrom(ctx).Annotate("lattice", fmt.Sprintf("%d points", len(pts)))

	prob, err := ip.Problem(q)
	if err != nil {
		return Prediction{}, err
	}
	targetCells := cellsOf(prob)
	targetX := targetCells / float64(q.Procs)

	// The target app keeps the lattice's kernel structure — same
	// benchmark, same ring — with the target's trip count.
	app := pts[0].st.App
	app.Trips = q.Trips
	app.Name = q.Workload()

	isolated, maxResid, err := isolatedTimes(app, pts, targetCells)
	if err != nil {
		return Prediction{}, err
	}
	xs := make([]float64, len(pts))
	for i, pt := range pts {
		xs[i] = pt.x
	}
	// A window's coupling value is a step model fitted over the lattice's
	// measured C series (ordered by per-rank working set), evaluated at
	// the target size; the containing plateau's spread is its band — the
	// finite-transition model's own uncertainty.
	st, windows, maxSpread, err := synthesize(app, isolated, 0, q.Chains, func(w []string) (c, lo, hi float64, err error) {
		cs := make([]float64, len(pts))
		for i, pt := range pts {
			wc, err := pt.st.Measurements.CouplingOf(w)
			if err != nil {
				return 0, 0, 0, Unanswerable(fmt.Errorf(
					"predict: lattice study %s has no coupling for window %s: %w", pt.q.Key(), core.Key(w), err))
			}
			cs[i] = wc.C
		}
		step, err := memmodel.FitStep(xs, cs, transitionThreshold)
		if err != nil {
			return 0, 0, 0, err
		}
		c, lo, hi = step.Eval(targetX)
		return c, lo, hi, nil
	})
	if err != nil {
		return Prediction{}, err
	}
	return modelled(st, ProvInterpolated, windows, ip.bandFloor()+maxResid+maxSpread), nil
}

func (ip *Interpolated) bandFloor() float64 {
	if ip.BandFloor > 0 {
		return ip.BandFloor
	}
	return DefaultBandFloor
}

// load resolves the usable lattice points, sorted ascending by working-set
// axis. The target itself is excluded so held-out validation stays honest.
func (ip *Interpolated) load(ctx context.Context, q Query) ([]latticePoint, error) {
	tkey := q.Key()
	pts := make([]latticePoint, 0, len(ip.Lattice))
	for _, lq := range ip.Lattice {
		if lq.Bench != q.Bench || lq.Key() == tkey {
			continue
		}
		prob, err := ip.Problem(lq)
		if err != nil {
			return nil, fmt.Errorf("predict: lattice point %s: %w", lq.Key(), err)
		}
		st, err := ip.Source(ctx, lq)
		if err != nil {
			// An unloadable point shrinks the lattice; the >= 2 floor
			// decides whether the backend can still answer.
			continue
		}
		cells := cellsOf(prob)
		pts = append(pts, latticePoint{q: lq, st: st, cells: cells, x: cells / float64(lq.Procs)})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	return pts, nil
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
