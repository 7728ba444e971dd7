// Package core implements the kernel-coupling performance-prediction
// methodology of Taylor, Wu, Geisler and Stevens (HPDC 2002).
//
// A kernel is a unit of computation inside an application's main loop. The
// coupling parameter of a chain of kernels S,
//
//	C_S = P_S / Σ_{k∈S} P_k,
//
// compares the measured performance of the chain executed together (P_S)
// against the no-interaction expectation built from each kernel's isolated
// performance (P_k). C_S < 1 is constructive coupling (shared resources
// help, e.g. cache reuse between kernels), C_S > 1 is destructive
// (interference), and C_S = 1 means the kernels do not interact.
//
// The one performance metric this reproduction measures is execution
// time, which is additive: a chain's no-interaction expectation is the sum
// of its kernels' isolated times. (The paper notes that a rate such as
// flop/s would combine by a weighted average instead; nothing here
// measures one.)
//
// The package's centerpiece is the composition algebra of Section 3 of the
// paper: the application time is modeled as T = Σ_k α_k·E_k where E_k is an
// isolated model of kernel k and the coefficient α_k is the weighted
// average of the coupling values of every length-L window of the loop's
// cyclic control flow that contains k, weighted by each window's measured
// time. Alpha is that fold and App.Compose that sum;
// App.CouplingPrediction is Alpha over the full length-L window set
// followed by Compose, and App.SummationPrediction, the traditional
// baseline, is Compose with every α_k = 1.
package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/stats"
)

// Measurements holds the raw inputs to the composition algebra, all in the
// same metric and all normalized to one execution: Isolated[k] is kernel
// k's performance alone (P_k per pass), and Window[Key(w)] is the chain's
// performance per pass through the window (P_S).
type Measurements struct {
	Isolated map[string]float64
	Window   map[string]float64
}

// isolatedSum returns a window's no-interaction expectation — the sum
// of its kernels' isolated times — summed as it gathers them.
func (m Measurements) isolatedSum(window []string) (float64, error) {
	var sum stats.Kahan
	for _, k := range window {
		v, ok := m.Isolated[k]
		if !ok {
			return 0, missingIsolated(k)
		}
		sum.Add(v)
	}
	return sum.Sum(), nil
}

// missingIsolated is the error of a kernel with no isolated measurement.
func missingIsolated(k string) error {
	return fmt.Errorf("core: missing isolated measurement for kernel %q", k)
}

// CouplingOf computes the window's coupling value from the measurement
// set.
func (m Measurements) CouplingOf(window []string) (WindowCoupling, error) {
	var kb [keyBuf]byte
	wc, err := m.couplingOf(window, appendKey(kb[:0], window))
	if err != nil {
		return WindowCoupling{}, err
	}
	wc.Window = append([]string(nil), window...)
	return wc, nil
}

// couplingOf is CouplingOf with the window's key already joined — as
// bytes, which the lookup of its measurement does not copy. The result
// holds window itself, not a copy.
func (m Measurements) couplingOf(window []string, key []byte) (WindowCoupling, error) {
	expected, err := m.isolatedSum(window)
	if err != nil {
		return WindowCoupling{}, err
	}
	chained, ok := m.Window[string(key)]
	if !ok {
		return WindowCoupling{}, fmt.Errorf("core: missing window measurement for %q", string(key))
	}
	if len(window) == 0 {
		return WindowCoupling{}, fmt.Errorf("core: window %q: %w", string(key), errEmptyWindow)
	}
	c, err := ratio(chained, expected)
	if err != nil {
		return WindowCoupling{}, fmt.Errorf("core: window %q: %w", string(key), err)
	}
	return WindowCoupling{
		Window:   window,
		Chained:  chained,
		Expected: chained / c,
		C:        c,
	}, nil
}

// CoefficientOptions tunes how window couplings are folded into per-kernel
// coefficients.
type CoefficientOptions struct {
	// Unweighted averages the coupling values of the windows containing a
	// kernel without weighting by window time. The paper weights by
	// window time ("the weight is needed such that a large coupling value
	// for a pair that attributes very little to the execution time
	// results in an appropriate valued coefficient"); this switch exists
	// for the ablation study of that choice.
	Unweighted bool
}

// coefficients computes the composition coefficient α_k of every kernel
// in the ring at chain length L: Alpha over the ring's length-L windows,
// which hold every kernel. For L=1 every coefficient is 1 (coupling
// prediction degenerates to summation); for L=len(ring) every coefficient
// equals the whole-loop coupling value and the prediction is exact by
// construction.
func coefficients(ring Ring, L int, m Measurements, opts CoefficientOptions) (map[string]float64, []WindowCoupling, error) {
	windows, err := ring.Windows(L)
	if err != nil {
		return nil, nil, err
	}
	couplings := make([]WindowCoupling, 0, len(windows))
	var kb [keyBuf]byte
	for _, w := range windows {
		var wc WindowCoupling
		if L == 1 {
			// Isolated "windows" have C = 1 by definition; synthesize
			// them so L=1 cleanly degenerates to summation.
			v, ok := m.Isolated[w[0]]
			if !ok {
				return nil, nil, missingIsolated(w[0])
			}
			wc = WindowCoupling{Window: w, Chained: v, Expected: v, C: 1}
		} else {
			wc, err = m.couplingOf(w, appendKey(kb[:0], w))
			if err != nil {
				return nil, nil, err
			}
		}
		couplings = append(couplings, wc)
	}

	coeffs := make(map[string]float64, len(ring))
	for _, k := range ring {
		alpha, _, ok := Alpha(k, couplings, opts)
		if !ok {
			return nil, nil, fmt.Errorf("core: zero total weight for kernel %q (all windows measured zero)", k)
		}
		coeffs[k] = alpha
	}
	return coeffs, couplings, nil
}

// Alpha folds the coupling values of the windows in ws that hold kernel k
// into its composition coefficient, per Section 3 of the paper:
//
//	α_k = Σ_{W∋k} C_W·P_W / Σ_{W∋k} P_W
//
// summed in the order ws gives (with opts.Unweighted every window weighs
// 1). held counts the windows that hold k; ok is false when their total
// weight is zero — none holds k, or every one measured zero — and alpha
// is then 0.
func Alpha(k string, ws []WindowCoupling, opts CoefficientOptions) (alpha float64, held int, ok bool) {
	var num, den float64
	for _, wc := range ws {
		if !slices.Contains(wc.Window, k) {
			continue
		}
		weight := wc.Chained
		if opts.Unweighted {
			weight = 1
		}
		num += wc.C * weight
		den += weight
		held++
	}
	if den == 0 {
		return 0, held, false
	}
	return num / den, held, true
}

// App describes an application in the paper's shape: optional one-shot
// kernels before and after a main loop whose body is a cyclic ring of
// kernels executed Trips times. BT class S, for example, is
// Pre={INITIALIZATION}, Loop={COPY_FACES, X_SOLVE, Y_SOLVE, Z_SOLVE, ADD},
// Post={FINAL}, Trips=60.
type App struct {
	Name  string
	Pre   []string
	Loop  Ring
	Post  []string
	Trips int
}

// Validate checks the app's structural invariants.
func (a App) Validate() error {
	if err := a.Loop.Validate(); err != nil {
		return fmt.Errorf("core: app %q: %w", a.Name, err)
	}
	if a.Trips < 1 {
		return fmt.Errorf("core: app %q: loop trip count %d must be >= 1", a.Name, a.Trips)
	}
	return nil
}

// Compose is the composition of Section 3 of the paper,
//
//	T = Σ_pre P_k + Trips·Σ_loop α_k·P_k + Σ_post P_k
//
// with α_k = alpha[k]; a nil alpha is every α_k = 1, the summation
// baseline.
func (a App) Compose(m Measurements, alpha map[string]float64) (float64, error) {
	var once float64
	for _, ks := range [2][]string{a.Pre, a.Post} {
		for _, k := range ks {
			v, ok := m.Isolated[k]
			if !ok {
				return 0, fmt.Errorf("core: missing isolated measurement for one-shot kernel %q", k)
			}
			once += v
		}
	}
	var loop float64
	for _, k := range a.Loop {
		v, ok := m.Isolated[k]
		if !ok {
			return 0, missingIsolated(k)
		}
		if alpha != nil {
			v = alpha[k] * v
		}
		loop += v
	}
	return once + float64(a.Trips)*loop, nil
}

// SummationPrediction is the traditional baseline: the sum of every
// kernel's isolated time, with loop kernels multiplied by the trip count —
// e.g. Tinit + Trips·(Tc-f + Tx-s + Ty-s + Tz-s + Tadd) + Tfinal.
func (a App) SummationPrediction(m Measurements) (float64, error) {
	if err := a.Validate(); err != nil {
		return 0, err
	}
	return a.Compose(m, nil)
}

// Prediction is the outcome of the coupling predictor, with the
// intermediate quantities the paper tabulates.
type Prediction struct {
	// Total is the predicted application execution time.
	Total float64
	// ChainLen is the window length L used.
	ChainLen int
	// Coefficients maps each loop kernel to its composition coefficient.
	Coefficients map[string]float64
	// Couplings holds the window coupling values the coefficients came
	// from, in ring order.
	Couplings []WindowCoupling
}

// CouplingPrediction predicts the application time with the composition
// algebra at chain length L: Alpha over the ring's length-L windows, then
// Compose.
func (a App) CouplingPrediction(m Measurements, L int, opts CoefficientOptions) (Prediction, error) {
	if err := a.Validate(); err != nil {
		return Prediction{}, err
	}
	coeffs, couplings, err := coefficients(a.Loop, L, m, opts)
	if err != nil {
		return Prediction{}, err
	}
	total, err := a.Compose(m, coeffs)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{
		Total:        total,
		ChainLen:     L,
		Coefficients: coeffs,
		Couplings:    couplings,
	}, nil
}

// KernelsSorted returns every kernel of the app (pre, loop, post) sorted by
// name; handy for deterministic reporting.
func (a App) KernelsSorted() []string {
	all := make([]string, 0, len(a.Pre)+len(a.Loop)+len(a.Post))
	all = append(all, a.Pre...)
	all = append(all, a.Loop...)
	all = append(all, a.Post...)
	sort.Strings(all)
	return all
}
