package harness

import (
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/stats"
)

// Analysis is the pure prediction tail of a study: everything computed
// from the measurements without running another world.
type Analysis struct {
	// Summation is the baseline predictor's outcome.
	Summation PredictionResult
	// Couplings maps chain length to the coupling predictor's outcome.
	Couplings map[int]PredictionResult
	// Details maps chain length to the full prediction for reporting.
	Details map[int]core.Prediction
	// Degraded lists the coefficients that had to fall back down the
	// degradation ladder (only possible when degrade is true).
	Degraded []CoefficientHealth
}

// Analyze computes the summation baseline and the coupling prediction for
// every requested chain length from measurements already taken. It is
// pure — no I/O, no metrics, no worlds — so it can re-analyze a persisted
// cache (couple -backend cached, kcserved ?backend=cached) or be
// unit-tested against synthetic numbers.
//
// measured maps every successfully measured window key to its kernels;
// with degrade true it is the fallback pool for the degradation ladder
// when a chain length's windows are incomplete. With degrade false any
// missing window is an error.
func Analyze(app core.App, m core.Measurements, actual float64, chainLens []int, measured map[string][]string, degrade bool) (Analysis, error) {
	sorted := append([]int(nil), chainLens...)
	sort.Ints(sorted)
	an := Analysis{
		Couplings: make(map[int]PredictionResult, len(sorted)),
		Details:   make(map[int]core.Prediction, len(sorted)),
	}
	sum, err := app.SummationPrediction(m)
	if err != nil {
		return Analysis{}, err
	}
	an.Summation = PredictionResult{
		Label:     "Summation",
		Predicted: sum,
		RelErr:    stats.RelativeError(sum, actual),
	}
	for _, L := range sorted {
		// The clean path computes the prediction exactly as before; only
		// when window measurements are missing (degradation) does the
		// fallback ladder take over.
		pred, err := app.CouplingPrediction(m, L, core.CoefficientOptions{})
		if err != nil {
			if !degrade {
				return Analysis{}, err
			}
			var degraded []CoefficientHealth
			pred, degraded, err = degradedPrediction(app, m, L, measured)
			if err != nil {
				return Analysis{}, err
			}
			an.Degraded = append(an.Degraded, degraded...)
		}
		an.Couplings[L] = PredictionResult{
			Label:     "Coupling: " + strconv.Itoa(L) + " kernels",
			Predicted: pred.Total,
			RelErr:    stats.RelativeError(pred.Total, actual),
			ChainLen:  L,
		}
		an.Details[L] = pred
	}
	return an, nil
}
