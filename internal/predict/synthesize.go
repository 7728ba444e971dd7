package predict

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/harness"
)

// couplingSource supplies one window's coupling value C_S and the band its
// backend puts around it. It is the only thing that differs between the
// ways of predicting a configuration whose windows were not measured.
type couplingSource func(window []string) (c, lo, hi float64, err error)

// synthesize is the paper's §3 composition step, and the one place a
// window time is made rather than measured: every window of every
// requested chain length gets its chained time back as P_S = C_S·ΣP_k
// from the isolated times and the coupling source, and the pure analysis
// tail (harness.Analyze) runs over the result — a study shaped exactly
// like a measured one, so every rendering layer works on it unchanged. It
// returns that study, one band per synthesized window in the order they
// were made, and the widest relative half-width (hi−lo)/2C among them.
//
// actual is the measured application time where there is one (Borrow).
// With zero there is no ground truth, and the relative errors are cleared
// rather than left at +Inf, which would poison JSON encoding downstream.
//
// Isolated times are taken as given: the map itself becomes the study's
// and is only read. A backend that models them clamps a non-positive one
// to a tiny positive time (isolatedTimes) instead of refusing: an
// extrapolation that undershoots still gets an answer, inside a band that
// owns the imprecision. That is the only policy; nothing stricter exists
// beside it.
func synthesize(app core.App, isolated map[string]float64, actual float64, chains []int, coupling couplingSource) (*harness.Study, []WindowBand, float64, error) {
	m := core.Measurements{Isolated: isolated, Window: make(map[string]float64)}
	chains = append([]int(nil), chains...)
	sort.Ints(chains)

	var bands []WindowBand
	var maxSpread float64
	for _, L := range chains {
		if L < 2 {
			continue
		}
		windows, err := app.Loop.Windows(L)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("predict: windows at chain length %d: %w", L, err)
		}
		for _, w := range windows {
			key := core.Key(w)
			if _, done := m.Window[key]; done {
				continue
			}
			c, lo, hi, err := coupling(w)
			if err != nil {
				return nil, nil, 0, err
			}
			var iso float64
			for _, k := range w {
				v, ok := m.Isolated[k]
				if !ok {
					return nil, nil, 0, fmt.Errorf("predict: no isolated time for kernel %q of window %s", k, key)
				}
				iso += v
			}
			m.Window[key] = c * iso
			bands = append(bands, WindowBand{Window: append([]string(nil), w...), C: c, Lo: lo, Hi: hi})
			if c > 0 {
				if spread := (hi - lo) / (2 * c); spread > maxSpread {
					maxSpread = spread
				}
			}
		}
	}

	an, err := harness.Analyze(app, m, actual, chains, nil, false)
	if err != nil {
		return nil, nil, 0, err
	}
	if actual == 0 {
		an.Summation.RelErr = 0
		for _, l := range chains {
			pr := an.Couplings[l]
			pr.RelErr = 0
			an.Couplings[l] = pr
		}
	}
	return &harness.Study{
		Workload:     app.Name,
		Trips:        app.Trips,
		App:          app,
		Measurements: m,
		Actual:       actual,
		Summation:    an.Summation,
		Couplings:    an.Couplings,
		Details:      an.Details,
	}, bands, maxSpread, nil
}

// modelled wraps a synthesized study as a model-based backend's answer:
// the longest chain's prediction, inside a band at least ±rel wide around
// it that keeps any wider model-choice spread the study already shows.
func modelled(st *harness.Study, prov Provenance, windows []WindowBand, rel float64) Prediction {
	pr := FromStudy(st, prov)
	pr.Windows = windows
	lo, hi := pr.Value*(1-rel), pr.Value*(1+rel)
	if pr.Band.Lo < lo {
		lo = pr.Band.Lo
	}
	if pr.Band.Hi > hi {
		hi = pr.Band.Hi
	}
	if lo < 0 {
		lo = 0
	}
	pr.Band = Band{Lo: lo, Hi: hi}
	return pr
}
