package predict

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

// checkComposed asserts the invariant synthesize owns: every reported
// window's chained time in the study is exactly its coupling value times
// the sum of its kernels' isolated times, taken in window order.
func checkComposed(t *testing.T, st *harness.Study, bands []WindowBand) {
	t.Helper()
	if len(bands) == 0 || len(bands) != len(st.Measurements.Window) {
		t.Fatalf("%d bands for %d synthesized windows", len(bands), len(st.Measurements.Window))
	}
	for _, wb := range bands {
		var iso float64
		for _, k := range wb.Window {
			iso += st.Measurements.Isolated[k]
		}
		key := core.Key(wb.Window)
		if got, ok := st.Measurements.Window[key]; !ok || got != wb.C*iso {
			t.Errorf("window %s: P_S = %x (present %v), want C·ΣP_k = %x", key, got, ok, wb.C*iso)
		}
	}
}

// toy is the borrowing tests' workload: a four-kernel ring whose costs
// and interactions all scale by one factor, so its coupling values do not.
func toy(scale float64) *harness.Synthetic {
	return &harness.Synthetic{
		SyntheticName: "toy",
		Pre:           []string{"I"},
		Loop:          []string{"A", "B", "C", "D"},
		Base:          map[string]float64{"I": 3 * scale, "A": 1 * scale, "B": 2 * scale, "C": 0.5 * scale, "D": 1.5 * scale},
		Delta:         map[string]float64{"A|B": -0.3 * scale, "C|D": 0.4 * scale},
	}
}

func runToy(t *testing.T, w *harness.Synthetic, chains []int) *harness.Study {
	t.Helper()
	st, err := harness.RunStudy(w, 50, chains, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func toyStudy(t *testing.T, scale float64, chains []int) *harness.Study {
	t.Helper()
	return runToy(t, toy(scale), chains)
}

// toyQuery places the toy workload on the lattice: grid g stands for
// scale g/6 (working set g³ on one rank).
func toyQuery(grid, trips int, chains ...int) Query {
	return Query{Bench: "toy", Procs: 1, Grid: grid, Trips: trips, Chains: chains}
}

// lender is an Interpolated over the given lattice whose points are
// answered by source.
func lender(source func(q Query) (*harness.Study, error), lattice ...Query) *Interpolated {
	return &Interpolated{
		Source:  func(_ context.Context, q Query) (*harness.Study, error) { return source(q) },
		Lattice: lattice,
		Problem: synthProblem,
	}
}

// toyLender lends from toy studies measured at the asked chain lengths.
func toyLender(t *testing.T, lattice ...Query) *Interpolated {
	return lender(func(q Query) (*harness.Study, error) {
		return toyStudy(t, float64(q.Grid)/6, q.Chains), nil
	}, lattice...)
}

// borrow loads ip's lattice for q and lends it to target.
func borrow(ctx context.Context, ip *Interpolated, target *harness.Study, q Query) (*harness.Study, error) {
	lend, err := ip.Borrow(ctx, q)
	if err != nil {
		return nil, err
	}
	return lend(target)
}

// Borrowing a study's own couplings must give its own predictions back:
// C·ΣP_k round-trips P_S at every chain length. The lattice point holds
// the same measurements as the target under another key (its trip
// count), since a point whose key is the target's is never lent from.
func TestReuseOwnStudyRoundTrips(t *testing.T) {
	chains := []int{2, 3, 4}
	full := toyStudy(t, 1, chains)
	got, err := borrow(context.Background(), toyLender(t, toyQuery(6, 51)), toyStudy(t, 1, nil), toyQuery(6, 50, chains...))
	if err != nil {
		t.Fatal(err)
	}
	if got.Actual != full.Actual || got.Summation != full.Summation {
		t.Errorf("actual %g summation %+v, want the target's own %g %+v", got.Actual, got.Summation, full.Actual, full.Summation)
	}
	for _, l := range chains {
		want, have := full.Couplings[l], got.Couplings[l]
		if math.Abs(have.Predicted-want.Predicted) > 1e-12*want.Predicted {
			t.Errorf("L=%d: borrowed prediction %v, measured %v", l, have.Predicted, want.Predicted)
		}
		if math.Abs(have.RelErr-want.RelErr) > 1e-12 {
			t.Errorf("L=%d: relative error %v, measured %v", l, have.RelErr, want.RelErr)
		}
	}
	var bands []WindowBand
	for _, l := range chains {
		for _, wc := range full.Details[l].Couplings {
			bands = append(bands, WindowBand{Window: wc.Window, C: wc.C})
		}
	}
	checkComposed(t, got, bands)

	// The target's own key in the lattice lends nothing.
	if _, err := borrow(context.Background(), toyLender(t, toyQuery(6, 50)), toyStudy(t, 1, nil), toyQuery(6, 50, chains...)); !errors.Is(err, ErrUnanswerable) {
		t.Errorf("self-lent err = %v, want unanswerable", err)
	}
}

// Couplings measured at one size predict another size whose interactions
// scaled with its costs: the full-ring prediction is the closed-form
// actual, the pairwise one is what a full campaign there would have
// predicted, and summation — the same fresh isolated times without the
// couplings — misses by exactly the interaction it cannot see.
func TestReuseConstantCouplingPredictsOtherSize(t *testing.T) {
	target := toyStudy(t, 2, nil)
	if n := len(target.Measurements.Window); n != 0 {
		t.Fatalf("target measured %d windows, want none", n)
	}
	got, err := borrow(context.Background(), toyLender(t, toyQuery(6, 50)), target, toyQuery(12, 50, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	const actual = 6 + 50*(10+(-0.6+0.8)) // pre + trips·(Σbase + Σdelta around the ring)
	if math.Abs(got.Actual-actual) > 1e-9 {
		t.Fatalf("target actual %v, closed form %v", got.Actual, actual)
	}
	if p := got.Couplings[4].Predicted; math.Abs(p-actual) > 1e-9 {
		t.Errorf("full-ring borrowed prediction %v, want the actual %v", p, actual)
	}
	direct := toyStudy(t, 2, []int{2})
	if p, want := got.Couplings[2].Predicted, direct.Couplings[2].Predicted; math.Abs(p-want) > 1e-9 {
		t.Errorf("pairwise borrowed prediction %v, a full campaign at the target predicts %v", p, want)
	}
	if miss := actual - got.Summation.Predicted; math.Abs(miss-50*0.2) > 1e-9 {
		t.Errorf("summation misses by %v, want the injected 50·0.2", miss)
	}
	if len(target.Measurements.Window) != 0 || len(target.Couplings) != 0 {
		t.Error("Borrow wrote into the target study")
	}
}

// A two-point lattice lends from the plateau that holds the target's
// working set: the pair interaction A|B turns from -0.3 to 0.9 above
// grid 8, so the step model puts a transition between the points, and a
// target on either side borrows its side's measured C unchanged.
func TestBorrowPicksThePlateauOfTheTarget(t *testing.T) {
	ip := lender(func(q Query) (*harness.Study, error) {
		w := toy(1)
		if q.Grid > 8 {
			w.Delta["A|B"] = 0.9
		}
		return runToy(t, w, q.Chains), nil
	}, toyQuery(6, 50), toyQuery(10, 50))
	small, _ := ip.Source(context.Background(), toyQuery(6, 50, 2))
	large, _ := ip.Source(context.Background(), toyQuery(10, 50, 2))
	target := toyStudy(t, 1, nil)
	ab := []string{"A", "B"}
	for _, tc := range []struct {
		grid int
		from *harness.Study
	}{{4, small}, {7, small}, {11, large}, {16, large}} {
		got, err := borrow(context.Background(), ip, target, toyQuery(tc.grid, 50, 2))
		if err != nil {
			t.Fatalf("grid %d: %v", tc.grid, err)
		}
		want, err := tc.from.Measurements.CouplingOf(ab)
		if err != nil {
			t.Fatal(err)
		}
		iso := target.Measurements.Isolated["A"] + target.Measurements.Isolated["B"]
		if p := got.Measurements.Window["A|B"]; p != want.C*iso {
			t.Errorf("grid %d: P_A|B = %v, want the C %v of its plateau times ΣP_k = %v", tc.grid, p, want.C, want.C*iso)
		}
	}
	smallC, _ := small.Measurements.CouplingOf(ab)
	largeC, _ := large.Measurements.CouplingOf(ab)
	if math.Abs(largeC.C-smallC.C) <= transitionThreshold*smallC.C {
		t.Errorf("C moves %v → %v, not a transition: the cases prove nothing", smallC.C, largeC.C)
	}
}

// What Borrow cannot use it must name.
func TestReuseErrors(t *testing.T) {
	ctx := context.Background()
	pairsOnly := func(study *harness.Study) *Interpolated {
		return lender(func(Query) (*harness.Study, error) { return study, nil }, toyQuery(6, 50))
	}
	ref := toyStudy(t, 1, []int{2})
	target := toyStudy(t, 2, nil)

	if _, err := borrow(ctx, pairsOnly(ref), target, toyQuery(12, 50, 3)); err == nil ||
		!strings.Contains(err.Error(), "A|B|C") || !strings.Contains(err.Error(), toyQuery(6, 50, 3).Key()) {
		t.Errorf("lattice point lacking the triples: err = %v, want one naming A|B|C and the point", err)
	}

	dead := *ref
	dead.Measurements = core.NewMeasurements()
	for k, v := range ref.Measurements.Isolated {
		dead.Measurements.Isolated[k] = v
	}
	for k, v := range ref.Measurements.Window {
		dead.Measurements.Window[k] = v
	}
	dead.Measurements.Window["C|D"] = 0
	if _, err := borrow(ctx, pairsOnly(&dead), target, toyQuery(12, 50, 2)); err == nil || !strings.Contains(err.Error(), "C|D") {
		t.Errorf("lattice point with C = 0: err = %v, want one naming C|D", err)
	}

	short := *target
	short.Measurements = core.NewMeasurements()
	for k, v := range target.Measurements.Isolated {
		if k != "B" {
			short.Measurements.Isolated[k] = v
		}
	}
	if _, err := borrow(ctx, pairsOnly(ref), &short, toyQuery(12, 50, 2)); err == nil || !strings.Contains(err.Error(), `"B"`) {
		t.Errorf("target lacking B: err = %v, want one naming it", err)
	}

	// No loadable point is a refusal that keeps why — an unwarmed point
	// is a cache miss — and comes before there is a target to lend to.
	cold := lender(func(Query) (*harness.Study, error) { return nil, harness.ErrCacheMiss }, toyQuery(6, 50))
	if _, err := cold.Borrow(ctx, toyQuery(12, 50, 2)); !errors.Is(err, ErrUnanswerable) || !errors.Is(err, harness.ErrCacheMiss) {
		t.Errorf("unwarmed lattice: err = %v, want an unanswerable cache miss", err)
	}
}
