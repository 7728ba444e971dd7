package harness

import (
	"fmt"

	"repro/internal/core"
)

// Synthetic is a deterministic, clock-free Workload driven by an explicit
// cost model: each kernel has a base cost, and each ordered adjacent pair
// (a immediately before b, including the wrap-around a window executed in
// a loop creates) contributes an interaction delta. It lets the harness
// and the composition algebra be tested end-to-end with exactly
// reproducible "timings".
//
// The model's window cost is
//
//	P(w) = Σ_k base[k] + Σ_{adjacent pairs (a,b) in the looped window} delta[a→b]
//
// so delta < 0 produces constructive coupling and delta > 0 destructive.
type Synthetic struct {
	// SyntheticName identifies the workload.
	SyntheticName string
	// Pre, Loop and Post are the kernel groups.
	Pre, Loop, Post []string
	// Base maps kernel name to its isolated per-execution cost.
	Base map[string]float64
	// Delta maps "a|b" (see core.Key) to the interaction cost incurred
	// when a immediately precedes b. Missing pairs contribute zero.
	Delta map[string]float64
}

// Name implements Workload.
func (s *Synthetic) Name() string { return s.SyntheticName }

// Kernels implements Workload.
func (s *Synthetic) Kernels() (pre, loop, post []string) {
	return s.Pre, s.Loop, s.Post
}

// WindowCost evaluates the model for one pass of the window inside a loop.
func (s *Synthetic) WindowCost(window []string) (float64, error) {
	if len(window) == 0 {
		return 0, fmt.Errorf("synthetic: empty window")
	}
	total := 0.0
	for _, k := range window {
		b, ok := s.Base[k]
		if !ok {
			return 0, fmt.Errorf("synthetic: kernel %q has no base cost", k)
		}
		total += b
	}
	if len(window) > 1 {
		for i := range window {
			a := window[i]
			b := window[(i+1)%len(window)] // wrap: the loop repeats the window
			total += s.Delta[core.Key([]string{a, b})]
		}
	}
	return total, nil
}

// MeasureWindow implements Workload deterministically.
func (s *Synthetic) MeasureWindow(window []string, _ Options) (float64, error) {
	return s.WindowCost(window)
}

// MeasureActual implements Workload: pre + trips·(loop ring cost) + post,
// with the loop's own wrap-around interactions included.
func (s *Synthetic) MeasureActual(trips int, _ Options) (float64, error) {
	total := 0.0
	for _, k := range s.Pre {
		b, ok := s.Base[k]
		if !ok {
			return 0, fmt.Errorf("synthetic: kernel %q has no base cost", k)
		}
		total += b
	}
	loopCost, err := s.WindowCost(s.Loop)
	if err != nil {
		return 0, err
	}
	total += float64(trips) * loopCost
	for _, k := range s.Post {
		b, ok := s.Base[k]
		if !ok {
			return 0, fmt.Errorf("synthetic: kernel %q has no base cost", k)
		}
		total += b
	}
	return total, nil
}
