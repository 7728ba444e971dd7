package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fourKernelMeasurements builds a measurement set for the paper's Section 3
// example (ring A,B,C,D) with the given isolated times and window times for
// chain length L.
func fourKernelMeasurements(t *testing.T, iso map[string]float64, windows map[string]float64) Measurements {
	t.Helper()
	m := Measurements{Isolated: map[string]float64{}, Window: map[string]float64{}}
	for k, v := range iso {
		m.Isolated[k] = v
	}
	for k, v := range windows {
		m.Window[k] = v
	}
	return m
}

// TestCoefficientsMatchPaperPairwiseFormulas checks the general
// implementation against the paper's explicit pairwise formulas:
//
//	α = [(C_AB·P_AB) + (C_DA·P_DA)] / (P_AB + P_DA)   ... etc.
func TestCoefficientsMatchPaperPairwiseFormulas(t *testing.T) {
	ring := Ring{"A", "B", "C", "D"}
	iso := map[string]float64{"A": 1.0, "B": 2.0, "C": 0.5, "D": 1.5}
	win := map[string]float64{
		"A|B": 2.7, // C_AB = 2.7/3.0 = 0.9
		"B|C": 3.0, // C_BC = 3.0/2.5 = 1.2
		"C|D": 1.9, // C_CD = 1.9/2.0 = 0.95
		"D|A": 2.5, // C_DA = 2.5/2.5 = 1.0
	}
	m := fourKernelMeasurements(t, iso, win)
	coeffs, couplings, err := coefficients(ring, 2, m, CoefficientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(couplings) != 4 {
		t.Fatalf("got %d couplings, want 4", len(couplings))
	}

	cAB, cBC, cCD, cDA := 0.9, 1.2, 0.95, 1.0
	pAB, pBC, pCD, pDA := 2.7, 3.0, 1.9, 2.5
	want := map[string]float64{
		"A": (cAB*pAB + cDA*pDA) / (pAB + pDA),
		"B": (cAB*pAB + cBC*pBC) / (pAB + pBC),
		"C": (cBC*pBC + cCD*pCD) / (pBC + pCD),
		"D": (cCD*pCD + cDA*pDA) / (pCD + pDA),
	}
	for k, w := range want {
		if math.Abs(coeffs[k]-w) > 1e-12 {
			t.Errorf("coefficient %s = %v, want %v", k, coeffs[k], w)
		}
	}
}

// TestCoefficientsMatchPaperChainOfThreeFormulas checks the L=3 formulas:
//
//	α = [(C_ABC·P_ABC) + (C_CDA·P_CDA) + (C_DAB·P_DAB)] / (P_ABC+P_CDA+P_DAB)
func TestCoefficientsMatchPaperChainOfThreeFormulas(t *testing.T) {
	ring := Ring{"A", "B", "C", "D"}
	iso := map[string]float64{"A": 1.0, "B": 2.0, "C": 0.5, "D": 1.5}
	win := map[string]float64{
		"A|B|C": 3.2,  // sum 3.5 -> C = 0.914285...
		"B|C|D": 4.4,  // sum 4.0 -> C = 1.1
		"C|D|A": 2.7,  // sum 3.0 -> C = 0.9
		"D|A|B": 4.95, // sum 4.5 -> C = 1.1
	}
	m := fourKernelMeasurements(t, iso, win)
	coeffs, _, err := coefficients(ring, 3, m, CoefficientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := func(key string, sum float64) float64 { return win[key] / sum }
	cABC, cBCD, cCDA, cDAB := c("A|B|C", 3.5), c("B|C|D", 4.0), c("C|D|A", 3.0), c("D|A|B", 4.5)
	pABC, pBCD, pCDA, pDAB := win["A|B|C"], win["B|C|D"], win["C|D|A"], win["D|A|B"]
	want := map[string]float64{
		"A": (cABC*pABC + cCDA*pCDA + cDAB*pDAB) / (pABC + pCDA + pDAB),
		"B": (cABC*pABC + cBCD*pBCD + cDAB*pDAB) / (pABC + pBCD + pDAB),
		"C": (cABC*pABC + cBCD*pBCD + cCDA*pCDA) / (pABC + pBCD + pCDA),
		"D": (cBCD*pBCD + cCDA*pCDA + cDAB*pDAB) / (pBCD + pCDA + pDAB),
	}
	for k, w := range want {
		if math.Abs(coeffs[k]-w) > 1e-12 {
			t.Errorf("coefficient %s = %v, want %v", k, coeffs[k], w)
		}
	}
}

func TestCoefficientsLengthOneAreUnity(t *testing.T) {
	ring := Ring{"A", "B", "C"}
	m := Measurements{Isolated: map[string]float64{}, Window: map[string]float64{}}
	m.Isolated["A"], m.Isolated["B"], m.Isolated["C"] = 1, 2, 3
	coeffs, _, err := coefficients(ring, 1, m, CoefficientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range coeffs {
		if v != 1 {
			t.Errorf("L=1 coefficient %s = %v, want 1", k, v)
		}
	}
}

func TestCoefficientsUnweightedOption(t *testing.T) {
	ring := Ring{"A", "B"}
	m := Measurements{Isolated: map[string]float64{}, Window: map[string]float64{}}
	m.Isolated["A"], m.Isolated["B"] = 1, 1
	// Full-ring window (L=2=N): single window, so weighting is moot, use
	// a 3-ring to see the difference.
	ring = Ring{"A", "B", "C"}
	m.Isolated["C"] = 1
	m.Window["A|B"] = 4 // C=2, heavy window
	m.Window["B|C"] = 1 // C=0.5, light window
	m.Window["C|A"] = 2 // C=1
	weighted, _, err := coefficients(ring, 2, m, CoefficientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	unweighted, _, err := coefficients(ring, 2, m, CoefficientOptions{Unweighted: true})
	if err != nil {
		t.Fatal(err)
	}
	// Kernel B participates in A|B (C=2, P=4) and B|C (C=0.5, P=1).
	if want := (2*4 + 0.5*1) / 5.0; math.Abs(weighted["B"]-want) > 1e-12 {
		t.Errorf("weighted B = %v, want %v", weighted["B"], want)
	}
	if want := (2 + 0.5) / 2.0; math.Abs(unweighted["B"]-want) > 1e-12 {
		t.Errorf("unweighted B = %v, want %v", unweighted["B"], want)
	}
}

func TestCoefficientsMissingMeasurement(t *testing.T) {
	ring := Ring{"A", "B"}
	m := Measurements{Isolated: map[string]float64{}, Window: map[string]float64{}}
	m.Isolated["A"] = 1 // B missing
	if _, _, err := coefficients(ring, 2, m, CoefficientOptions{}); err == nil {
		t.Error("missing isolated measurement should fail")
	}
	m.Isolated["B"] = 1 // window missing
	if _, _, err := coefficients(ring, 2, m, CoefficientOptions{}); err == nil {
		t.Error("missing window measurement should fail")
	}
}

// appForTest is a 4-kernel app in the shape of the paper's BT description.
func appForTest() App {
	return App{
		Name:  "toy",
		Pre:   []string{"INIT"},
		Loop:  Ring{"A", "B", "C", "D"},
		Post:  []string{"FINAL"},
		Trips: 10,
	}
}

func measurementsForApp(win map[string]float64) Measurements {
	m := Measurements{Isolated: map[string]float64{}, Window: map[string]float64{}}
	m.Isolated["INIT"] = 5
	m.Isolated["FINAL"] = 3
	m.Isolated["A"], m.Isolated["B"], m.Isolated["C"], m.Isolated["D"] = 1, 2, 0.5, 1.5
	for k, v := range win {
		m.Window[k] = v
	}
	return m
}

func TestSummationPrediction(t *testing.T) {
	app := appForTest()
	m := measurementsForApp(nil)
	got, err := app.SummationPrediction(m)
	if err != nil {
		t.Fatal(err)
	}
	want := 5.0 + 3.0 + 10*(1+2+0.5+1.5)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("summation = %v, want %v", got, want)
	}
}

func TestCouplingPredictionNoInteractionEqualsSummation(t *testing.T) {
	// When every window time is exactly the sum of its kernels' isolated
	// times, all couplings are 1 and the two predictors must agree.
	app := appForTest()
	m := measurementsForApp(map[string]float64{
		"A|B": 3, "B|C": 2.5, "C|D": 2, "D|A": 2.5,
	})
	sum, err := app.SummationPrediction(m)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := app.CouplingPrediction(m, 2, CoefficientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred.Total-sum) > 1e-9 {
		t.Errorf("no-interaction coupling prediction %v != summation %v", pred.Total, sum)
	}
	for _, wc := range pred.Couplings {
		if math.Abs(wc.C-1) > 1e-12 {
			t.Errorf("window %s coupling = %v, want 1", wc.Key(), wc.C)
		}
	}
}

func TestCouplingPredictionFullRingIsExact(t *testing.T) {
	// With L = len(ring), the prediction reduces to
	// once + Trips * P_ring, the measured whole-loop time: exact by
	// construction whatever the interactions are.
	app := appForTest()
	m := measurementsForApp(map[string]float64{
		"A|B|C|D": 4.2, // heavy constructive coupling: sum is 5.0
	})
	pred, err := app.CouplingPrediction(m, 4, CoefficientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 5.0 + 3.0 + 10*4.2
	if math.Abs(pred.Total-want) > 1e-9 {
		t.Errorf("full-ring prediction = %v, want exact %v", pred.Total, want)
	}
	// All coefficients equal the ring coupling value.
	cRing := 4.2 / 5.0
	for k, v := range pred.Coefficients {
		if math.Abs(v-cRing) > 1e-12 {
			t.Errorf("coefficient %s = %v, want %v", k, v, cRing)
		}
	}
}

func TestCouplingPredictionLengthOneEqualsSummation(t *testing.T) {
	app := appForTest()
	m := measurementsForApp(nil)
	sum, err := app.SummationPrediction(m)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := app.CouplingPrediction(m, 1, CoefficientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred.Total-sum) > 1e-12 {
		t.Errorf("L=1 prediction %v != summation %v", pred.Total, sum)
	}
}

func TestCoefficientsAreConvexCombinations(t *testing.T) {
	// Property: each coefficient is a weighted average of coupling
	// values, so it must lie within [min C, max C].
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ring := Ring{"A", "B", "C", "D", "E"}
		m := Measurements{Isolated: map[string]float64{}, Window: map[string]float64{}}
		for _, k := range ring {
			m.Isolated[k] = 0.5 + rng.Float64()
		}
		L := 2 + rng.Intn(3) // 2..4
		windows, _ := ring.Windows(L)
		for _, w := range windows {
			var sum float64
			for _, k := range w {
				sum += m.Isolated[k]
			}
			// Window time within ±40% of the sum.
			m.Window[Key(w)] = sum * (0.6 + 0.8*rng.Float64())
		}
		coeffs, couplings, err := coefficients(ring, L, m, CoefficientOptions{})
		if err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, wc := range couplings {
			lo = math.Min(lo, wc.C)
			hi = math.Max(hi, wc.C)
		}
		for _, v := range coeffs {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCouplingPredictionScalesLinearlyWithTrips(t *testing.T) {
	m := measurementsForApp(map[string]float64{
		"A|B": 3.3, "B|C": 2.2, "C|D": 2.1, "D|A": 2.4,
	})
	app1 := appForTest()
	app1.Trips = 1
	app10 := appForTest()
	app10.Trips = 10
	p1, err := app1.CouplingPrediction(m, 2, CoefficientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p10, err := app10.CouplingPrediction(m, 2, CoefficientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	once := 8.0 // INIT + FINAL
	if math.Abs((p10.Total-once)-10*(p1.Total-once)) > 1e-9 {
		t.Errorf("loop part should scale linearly: %v vs %v", p10.Total-once, p1.Total-once)
	}
}

func TestAppValidate(t *testing.T) {
	bad := App{Name: "x", Loop: Ring{"A"}, Trips: 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero trips should be invalid")
	}
	bad = App{Name: "x", Loop: Ring{}, Trips: 1}
	if err := bad.Validate(); err == nil {
		t.Error("empty loop should be invalid")
	}
}

func TestAppMissingOneShotMeasurement(t *testing.T) {
	app := appForTest()
	m := measurementsForApp(nil)
	delete(m.Isolated, "FINAL")
	if _, err := app.SummationPrediction(m); err == nil {
		t.Error("missing FINAL should fail")
	}
}

func TestKernelsSorted(t *testing.T) {
	app := appForTest()
	got := app.KernelsSorted()
	want := []string{"A", "B", "C", "D", "FINAL", "INIT"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCouplingOfReportsExpected(t *testing.T) {
	m := Measurements{Isolated: map[string]float64{}, Window: map[string]float64{}}
	m.Isolated["A"], m.Isolated["B"] = 1, 3
	m.Window["A|B"] = 3.6
	wc, err := m.CouplingOf([]string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wc.C-0.9) > 1e-12 || math.Abs(wc.Expected-4.0) > 1e-9 || wc.Chained != 3.6 {
		t.Errorf("unexpected coupling detail: %+v", wc)
	}
}

func TestCoefficientsScaleInvariantProperty(t *testing.T) {
	// Scaling every measurement by λ > 0 leaves the coupling values and
	// coefficients unchanged and scales predictions linearly: the
	// composition algebra is unit-free.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lambda := 0.1 + 10*rng.Float64()
		ring := Ring{"A", "B", "C", "D"}
		app := App{Name: "scale", Loop: ring, Trips: 7}
		m := Measurements{Isolated: map[string]float64{}, Window: map[string]float64{}}
		for _, k := range ring {
			m.Isolated[k] = 0.5 + rng.Float64()
		}
		windows, _ := ring.Windows(2)
		for _, w := range windows {
			var sum float64
			for _, k := range w {
				sum += m.Isolated[k]
			}
			m.Window[Key(w)] = sum * (0.7 + 0.6*rng.Float64())
		}
		scaled := Measurements{Isolated: map[string]float64{}, Window: map[string]float64{}}
		for k, v := range m.Isolated {
			scaled.Isolated[k] = lambda * v
		}
		for k, v := range m.Window {
			scaled.Window[k] = lambda * v
		}
		c1, _, err1 := coefficients(ring, 2, m, CoefficientOptions{})
		c2, _, err2 := coefficients(ring, 2, scaled, CoefficientOptions{})
		if err1 != nil || err2 != nil {
			return false
		}
		for k := range c1 {
			if math.Abs(c1[k]-c2[k]) > 1e-9 {
				return false
			}
		}
		p1, err1 := app.CouplingPrediction(m, 2, CoefficientOptions{})
		p2, err2 := app.CouplingPrediction(scaled, 2, CoefficientOptions{})
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(p2.Total-lambda*p1.Total) < 1e-9*(1+p2.Total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCouplingPredictionMatchesManualFourKernelExpansion(t *testing.T) {
	// Fully hand-expanded Section 3 example: T = α·E_A + β·E_B + γ·E_C +
	// δ·E_D with the paper's pairwise coefficient formulas, computed by
	// hand and compared against the library end to end.
	app := App{Name: "paper", Loop: Ring{"A", "B", "C", "D"}, Trips: 1}
	m := Measurements{Isolated: map[string]float64{}, Window: map[string]float64{}}
	m.Isolated["A"], m.Isolated["B"], m.Isolated["C"], m.Isolated["D"] = 2, 3, 4, 5
	m.Window["A|B"] = 4.5 // C=0.9
	m.Window["B|C"] = 7.7 // C=1.1
	m.Window["C|D"] = 9.0 // C=1.0
	m.Window["D|A"] = 6.3 // C=0.9
	pred, err := app.CouplingPrediction(m, 2, CoefficientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alpha := (0.9*4.5 + 0.9*6.3) / (4.5 + 6.3)
	beta := (0.9*4.5 + 1.1*7.7) / (4.5 + 7.7)
	gamma := (1.1*7.7 + 1.0*9.0) / (7.7 + 9.0)
	delta := (1.0*9.0 + 0.9*6.3) / (9.0 + 6.3)
	want := alpha*2 + beta*3 + gamma*4 + delta*5
	if math.Abs(pred.Total-want) > 1e-9 {
		t.Errorf("prediction %v, hand expansion %v", pred.Total, want)
	}
}

// TestAlphaWeightsByWindowTime: the paper's α for a kernel in two windows
// is the average of their coupling values weighted by window time, and a
// kernel no window holds, or whose windows weigh nothing, has none.
func TestAlphaWeightsByWindowTime(t *testing.T) {
	ws := []WindowCoupling{
		{Window: []string{"A", "B"}, Chained: 3, C: 0.8},
		{Window: []string{"B", "C"}, Chained: 1, C: 1.2},
		{Window: []string{"C", "D"}, Chained: 7, C: 2},
	}
	alpha, held, ok := Alpha("B", ws, CoefficientOptions{})
	if want := (0.8*3 + 1.2*1) / 4; !ok || held != 2 || math.Abs(alpha-want) > 1e-12 {
		t.Errorf("Alpha(B) = %v, %d, %v; want %v, 2, true", alpha, held, ok, want)
	}
	if _, held, ok := Alpha("E", ws, CoefficientOptions{}); ok || held != 0 {
		t.Errorf("Alpha(E) held %d ok %v, want 0 false", held, ok)
	}
	zero := []WindowCoupling{{Window: []string{"A", "B"}, Chained: 0, C: 0}}
	if _, held, ok := Alpha("A", zero, CoefficientOptions{}); ok || held != 1 {
		t.Errorf("Alpha over a zero-time window held %d ok %v, want 1 false", held, ok)
	}
}

// TestAlphaUnweightedIsMeanProperty: with every window weighing 1, α_k is
// the plain mean of the coupling values of the windows holding k.
func TestAlphaUnweightedIsMeanProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var ws []WindowCoupling
		var cs []float64
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			c := math.Mod(math.Abs(x), 1e6)
			ws = append(ws, WindowCoupling{Window: []string{"K"}, Chained: 1 + c, C: c})
			cs = append(cs, c)
		}
		alpha, held, ok := Alpha("K", ws, CoefficientOptions{Unweighted: true})
		if len(cs) == 0 {
			return !ok && held == 0
		}
		var mean float64
		for _, c := range cs {
			mean += c
		}
		mean /= float64(len(cs))
		return ok && held == len(cs) && math.Abs(alpha-mean) <= 1e-6*(1+mean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
