package core

import (
	"errors"
	"fmt"
)

// Regime classifies a coupling value per Section 2 of the paper.
type Regime int

const (
	// Constructive coupling: C_S < 1, the chain runs faster than its
	// parts because some resource (typically cache contents) is shared.
	Constructive Regime = iota
	// Neutral coupling: C_S = 1 within tolerance, no interaction.
	Neutral
	// Destructive coupling: C_S > 1, the kernels interfere.
	Destructive
)

// String returns the regime name.
func (r Regime) String() string {
	switch r {
	case Constructive:
		return "constructive"
	case Neutral:
		return "neutral"
	case Destructive:
		return "destructive"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// Classify buckets a coupling value with the given tolerance around 1.
// A negative tolerance is treated as zero.
func Classify(c, tol float64) Regime {
	if tol < 0 {
		tol = 0
	}
	switch {
	case c < 1-tol:
		return Constructive
	case c > 1+tol:
		return Destructive
	default:
		return Neutral
	}
}

// errEmptyWindow is the coupling of a window with no kernels.
var errEmptyWindow = errors.New("core: coupling of empty window")

// ratio is C_S = chained/expected once the no-interaction expectation is
// known, refusing the values a coupling cannot be formed from.
func ratio(chained, expected float64) (float64, error) {
	if expected <= 0 {
		return 0, fmt.Errorf("core: non-positive no-interaction expectation %v", expected)
	}
	if chained < 0 {
		return 0, fmt.Errorf("core: negative chained measurement %v", chained)
	}
	return chained / expected, nil
}

// PairCoupling is the two-kernel form C_ij = P_ij / (P_i + P_j) — Eq. 1
// of the paper.
func PairCoupling(pij, pi, pj float64) (float64, error) {
	return ratio(pij, pi+pj)
}

// WindowCoupling records one window's coupling value alongside the
// measurements it came from, for reporting.
type WindowCoupling struct {
	// Window holds the kernel names in chain order.
	Window []string
	// Chained is P_S, the measured performance of the window together.
	Chained float64
	// Expected is the no-interaction expectation: the sum of the isolated
	// values.
	Expected float64
	// C is the coupling value Chained/Expected.
	C float64
}

// Key returns the window's canonical key.
func (w WindowCoupling) Key() string { return Key(w.Window) }

// Regime classifies the coupling value with the given tolerance.
func (w WindowCoupling) Regime(tol float64) Regime { return Classify(w.C, tol) }
