package core_test

import (
	"fmt"

	"repro/internal/core"
)

// The two-kernel coupling value of Eq. 1: kernels measured at 1.0s and
// 2.0s alone take 2.7s together — constructive coupling.
func ExamplePairCoupling() {
	c, _ := core.PairCoupling(2.7, 1.0, 2.0)
	fmt.Printf("C_ij = %.2f (%s)\n", c, core.Classify(c, 0.02))
	// Output: C_ij = 0.90 (constructive)
}

// Windows enumerates the cyclic chains the coefficients average over.
func ExampleRing_Windows() {
	ring := core.Ring{"A", "B", "C", "D"}
	windows, _ := ring.Windows(3)
	for _, w := range windows {
		fmt.Println(core.Key(w))
	}
	// Output:
	// A|B|C
	// B|C|D
	// C|D|A
	// D|A|B
}

// A complete prediction: measurements in, summation baseline and coupling
// predictor out.
func ExampleApp_CouplingPrediction() {
	app := core.App{
		Name:  "demo",
		Loop:  core.Ring{"COMPUTE", "EXCHANGE"},
		Trips: 100,
	}
	m := core.Measurements{Isolated: map[string]float64{}, Window: map[string]float64{}}
	m.Isolated["COMPUTE"] = 0.010
	m.Isolated["EXCHANGE"] = 0.002
	m.Window["COMPUTE|EXCHANGE"] = 0.0138 // destructive: 0.012 expected

	sum, _ := app.SummationPrediction(m)
	pred, _ := app.CouplingPrediction(m, 2, core.CoefficientOptions{})
	fmt.Printf("summation: %.2fs\n", sum)
	fmt.Printf("coupling:  %.2fs (C = %.2f)\n", pred.Total, pred.Couplings[0].C)
	// Output:
	// summation: 1.20s
	// coupling:  1.38s (C = 1.15)
}
