package harness

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
)

// Degradation modes for a composition coefficient whose full window set
// could not be measured.
const (
	// ModePartial: some (not all) length-L windows containing the kernel
	// were measured; the coefficient averages over the survivors.
	ModePartial = "partial"
	// ModeShorterChain: no length-L window survived; the coefficient comes
	// from shorter sub-windows measured by the degradation ladder.
	ModeShorterChain = "shorter-chain"
	// ModeSummation: no window containing the kernel survived at any
	// length; the coefficient falls back to 1, the summation predictor.
	ModeSummation = "summation"
)

// RetryRecord records one failed measurement attempt that was retried.
type RetryRecord struct {
	// Key is the kernel or window key that failed.
	Key string `json:"key"`
	// Kind is plan.KindIsolated, plan.KindWindow or plan.KindActual.
	Kind plan.Kind `json:"kind"`
	// Attempt is the 1-based attempt number that failed.
	Attempt int `json:"attempt"`
	// Err is the failure.
	Err string `json:"err"`
}

// WindowFailure records a window that stayed unmeasurable after the whole
// retry budget, triggering the degradation ladder.
type WindowFailure struct {
	Key string `json:"key"`
	Err string `json:"err"`
}

// CoefficientHealth records a kernel whose composition coefficient was
// computed degraded: from a partial window set, from shorter-chain
// sub-windows, or as the summation fallback.
type CoefficientHealth struct {
	Kernel   string `json:"kernel"`
	ChainLen int    `json:"chain_len"`
	Mode     string `json:"mode"`
}

// StudyHealth is the degradation record of a study: every retry spent,
// every window lost, every coefficient that had to be computed from less
// than its full window set. A clean run has the zero value.
type StudyHealth struct {
	Retries       []RetryRecord       `json:"retries,omitempty"`
	FailedWindows []WindowFailure     `json:"failed_windows,omitempty"`
	Degraded      []CoefficientHealth `json:"degraded,omitempty"`
}

// Clean reports whether the study completed without retries or
// degradation.
func (h StudyHealth) Clean() bool {
	return len(h.Retries) == 0 && len(h.FailedWindows) == 0 && len(h.Degraded) == 0
}

// FillManifest renders the study's degradation record into the manifest
// health block, one deterministic line per retry, failed window, and
// degraded coefficient.
func (h StudyHealth) FillManifest(mh *obs.Health) {
	for _, r := range h.Retries {
		mh.Retries = append(mh.Retries,
			fmt.Sprintf("%s %s attempt %d: %s", r.Kind, r.Key, r.Attempt, firstLine(r.Err)))
	}
	for _, f := range h.FailedWindows {
		mh.FailedWindows = append(mh.FailedWindows,
			fmt.Sprintf("%s: %s", f.Key, firstLine(f.Err)))
	}
	for _, d := range h.Degraded {
		mh.DegradedCoefficients = append(mh.DegradedCoefficients,
			fmt.Sprintf("%s chain=%d mode=%s", d.Kernel, d.ChainLen, d.Mode))
	}
}

// degradedPrediction computes the chain-length-L coupling prediction from
// whatever window measurements survived. It only chooses each kernel's
// windows; core.Alpha folds them and App.Compose composes. Per kernel, the
// degradation ladder is:
//
//  1. the measured length-L windows holding it (ModePartial when fewer
//     than the len(windows)·L/len(ring) it expects survived),
//  2. else, when none survived, any other measured multi-kernel window
//     holding it — the ladder's shorter-chain sub-windows, in sorted-key
//     order (ModeShorterChain),
//  3. else, or when its windows weigh nothing, α=1, the summation
//     predictor (ModeSummation).
//
// measured maps every successfully measured window key to its kernel
// list. Kernels whose full length-L window set survived are computed
// exactly as core.App.CouplingPrediction would and are not reported
// degraded.
func degradedPrediction(app core.App, m core.Measurements, L int, measured map[string][]string) (core.Prediction, []CoefficientHealth, error) {
	windows, err := app.Loop.Windows(L)
	if err != nil {
		return core.Prediction{}, nil, err
	}
	var lCouplings []core.WindowCoupling
	lKeys := make(map[string]bool, len(windows))
	for _, w := range windows {
		lKeys[core.Key(w)] = true
		if _, ok := m.Window[core.Key(w)]; !ok {
			continue
		}
		wc, err := m.CouplingOf(w)
		if err != nil {
			return core.Prediction{}, nil, err
		}
		lCouplings = append(lCouplings, wc)
	}
	expect := len(windows) * L / len(app.Loop)

	// pool is every other measured multi-kernel window, built (non-nil)
	// the first time a kernel needs it.
	var pool []core.WindowCoupling
	coeffs := make(map[string]float64, len(app.Loop))
	var degraded []CoefficientHealth
	for _, k := range app.Loop {
		alpha, held, ok := core.Alpha(k, lCouplings, core.CoefficientOptions{})
		mode := ""
		if held < expect {
			mode = ModePartial
		}
		if held == 0 {
			mode = ModeShorterChain
			if pool == nil {
				if pool, err = fallbackPool(m, measured, lKeys); err != nil {
					return core.Prediction{}, nil, err
				}
			}
			alpha, _, ok = core.Alpha(k, pool, core.CoefficientOptions{})
		}
		if !ok {
			mode = ModeSummation
			alpha = 1
		}
		coeffs[k] = alpha
		if mode != "" {
			degraded = append(degraded, CoefficientHealth{Kernel: k, ChainLen: L, Mode: mode})
		}
	}

	total, err := app.Compose(m, coeffs)
	if err != nil {
		return core.Prediction{}, nil, err
	}
	return core.Prediction{
		Total:        total,
		ChainLen:     L,
		Coefficients: coeffs,
		Couplings:    lCouplings,
	}, degraded, nil
}

// fallbackPool returns the couplings of every measured multi-kernel window
// not among the length-L ones (lKeys), in sorted-key order.
func fallbackPool(m core.Measurements, measured map[string][]string, lKeys map[string]bool) ([]core.WindowCoupling, error) {
	keys := make([]string, 0, len(measured))
	for key, w := range measured {
		if len(w) >= 2 && !lKeys[key] {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	pool := make([]core.WindowCoupling, 0, len(keys))
	for _, key := range keys {
		wc, err := m.CouplingOf(measured[key])
		if err != nil {
			return nil, err
		}
		pool = append(pool, wc)
	}
	return pool, nil
}
