package tables

import (
	"context"
	"testing"

	"repro/internal/plan"
	"repro/internal/predict"
)

// TestCrossSizeInterpolation is the interpolated backend's regression
// test on real measurements: warm a lattice of small BT grids, interpolate
// a grid that was never measured, then measure it for real and require
// the held-out truth to land inside the backend's own stated confidence
// band. This is the paper's future-work scenario — reusing measured
// coupling values to predict new configurations without a new measurement
// campaign — run end to end through the predictor interface.
func TestCrossSizeInterpolation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements")
	}
	cache, err := plan.NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := BackendConfig{Cache: cache}
	ctx := context.Background()

	query := func(grid int) predict.Query {
		return predict.Query{
			Bench: "BT", Class: "S", Procs: 4, Chains: []int{2},
			Trips: 3, Blocks: 3, Passes: 1, Grid: grid,
		}
	}

	// Warm the lattice: three measured grids bracketing the target.
	lattice := []predict.Query{query(6), query(8), query(12)}
	measured := cfg.StudyRunner()
	for _, q := range lattice {
		if _, err := measured(ctx, q); err != nil {
			t.Fatalf("warming grid %d: %v", q.Grid, err)
		}
	}

	interp := &predict.Interpolated{
		Source:  cfg.CacheRunner(),
		Lattice: lattice,
		Problem: PredictProblem,
		// Grids this small time in milliseconds, where scheduling noise
		// runs hotter than the default floor assumes; the band must own
		// that uncertainty for the containment assertion to be honest.
		BandFloor: 0.4,
	}
	target := query(10)
	pr, err := interp.Predict(ctx, target)
	if err != nil {
		t.Fatalf("interpolating grid 10: %v", err)
	}
	if pr.Provenance != predict.ProvInterpolated {
		t.Errorf("provenance = %q, want interpolated", pr.Provenance)
	}
	if pr.Value <= 0 || !(pr.Band.Lo <= pr.Value && pr.Value <= pr.Band.Hi) {
		t.Fatalf("prediction %v outside its own band %+v", pr.Value, pr.Band)
	}

	// Held-out ground truth: measure the target for real.
	truth, err := measured(ctx, target)
	if err != nil {
		t.Fatalf("measuring grid 10: %v", err)
	}
	if truth.Actual <= 0 {
		t.Fatalf("measured actual = %v", truth.Actual)
	}
	if truth.Actual < pr.Band.Lo || truth.Actual > pr.Band.Hi {
		t.Errorf("measured actual %v outside interpolated band [%v, %v] (predicted %v)",
			truth.Actual, pr.Band.Lo, pr.Band.Hi, pr.Value)
	}
}
