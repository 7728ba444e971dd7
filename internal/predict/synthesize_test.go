package predict

import (
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

// toy is the reuse tests' workload: a four-kernel ring whose costs and
// interactions all scale by one factor, so its coupling values do not.
func toy(scale float64) *harness.Synthetic {
	return &harness.Synthetic{
		SyntheticName: "toy",
		Pre:           []string{"I"},
		Loop:          []string{"A", "B", "C", "D"},
		Base:          map[string]float64{"I": 3 * scale, "A": 1 * scale, "B": 2 * scale, "C": 0.5 * scale, "D": 1.5 * scale},
		Delta:         map[string]float64{"A|B": -0.3 * scale, "C|D": 0.4 * scale},
	}
}

func toyStudy(t *testing.T, scale float64, chains []int) *harness.Study {
	t.Helper()
	st, err := harness.RunStudy(toy(scale), 50, chains, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// Reusing a study's own couplings must give its own predictions back:
// C·ΣP_k round-trips P_S at every chain length.
func TestReuseOwnStudyRoundTrips(t *testing.T) {
	chains := []int{2, 3, 4}
	full := toyStudy(t, 1, chains)
	got, err := Reuse(toyStudy(t, 1, nil), full, chains)
	if err != nil {
		t.Fatal(err)
	}
	if got.Actual != full.Actual || got.Summation != full.Summation {
		t.Errorf("actual %g summation %+v, want the target's own %g %+v", got.Actual, got.Summation, full.Actual, full.Summation)
	}
	for _, l := range chains {
		want, have := full.Couplings[l], got.Couplings[l]
		if math.Abs(have.Predicted-want.Predicted) > 1e-12*want.Predicted {
			t.Errorf("L=%d: reused prediction %v, measured %v", l, have.Predicted, want.Predicted)
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
}

// Couplings measured at one size predict another size whose interactions
// scaled with its costs: the full-ring prediction is the closed-form
// actual, the pairwise one is what a full campaign there would have
// predicted, and summation — the same fresh isolated times without the
// couplings — misses by exactly the interaction it cannot see.
func TestReuseConstantCouplingPredictsOtherSize(t *testing.T) {
	ref := toyStudy(t, 1, []int{2, 4})
	target := toyStudy(t, 2, nil)
	if n := len(target.Measurements.Window); n != 0 {
		t.Fatalf("target measured %d windows, want none", n)
	}
	got, err := Reuse(target, ref, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	const actual = 6 + 50*(10+(-0.6+0.8)) // pre + trips·(Σbase + Σdelta around the ring)
	if math.Abs(got.Actual-actual) > 1e-9 {
		t.Fatalf("target actual %v, closed form %v", got.Actual, actual)
	}
	if p := got.Couplings[4].Predicted; math.Abs(p-actual) > 1e-9 {
		t.Errorf("full-ring reused prediction %v, want the actual %v", p, actual)
	}
	direct := toyStudy(t, 2, []int{2})
	if p, want := got.Couplings[2].Predicted, direct.Couplings[2].Predicted; math.Abs(p-want) > 1e-9 {
		t.Errorf("pairwise reused prediction %v, a full campaign at the target predicts %v", p, want)
	}
	if miss := actual - got.Summation.Predicted; math.Abs(miss-50*0.2) > 1e-9 {
		t.Errorf("summation misses by %v, want the injected 50·0.2", miss)
	}
	if len(target.Measurements.Window) != 0 || len(target.Couplings) != 0 {
		t.Error("Reuse wrote into the target study")
	}
}

// What Reuse cannot use it must name.
func TestReuseErrors(t *testing.T) {
	ref := toyStudy(t, 1, []int{2})
	target := toyStudy(t, 2, nil)

	if _, err := Reuse(target, ref, []int{3}); err == nil || !strings.Contains(err.Error(), "A|B|C") {
		t.Errorf("reference lacking the triples: err = %v, want one naming A|B|C", err)
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
	if _, err := Reuse(target, &dead, []int{2}); err == nil || !strings.Contains(err.Error(), "C|D") {
		t.Errorf("reference with C = 0: err = %v, want one naming C|D", err)
	}

	short := *target
	short.Measurements = core.NewMeasurements()
	for k, v := range target.Measurements.Isolated {
		if k != "B" {
			short.Measurements.Isolated[k] = v
		}
	}
	if _, err := Reuse(&short, ref, []int{2}); err == nil || !strings.Contains(err.Error(), `"B"`) {
		t.Errorf("target lacking B: err = %v, want one naming it", err)
	}
}
