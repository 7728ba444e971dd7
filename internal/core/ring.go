package core

import (
	"fmt"
	"strings"
)

// Ring is the cyclic control flow of an application's main loop: the kernel
// names in execution order. The loop wraps around, so the kernel pair
// {last, first} is as much a coupling site as any adjacent pair — the
// paper's BT tables include the {Add, Copy_Faces} wrap-around window.
type Ring []string

// Validate checks that the ring is non-empty and free of duplicate kernel
// names (a kernel appearing twice per trip would need distinct labels).
func (r Ring) Validate() error {
	if len(r) == 0 {
		return fmt.Errorf("core: empty kernel ring")
	}
	seen := make(map[string]bool, len(r))
	for _, k := range r {
		if k == "" {
			return fmt.Errorf("core: empty kernel name in ring")
		}
		if seen[k] {
			return fmt.Errorf("core: duplicate kernel %q in ring", k)
		}
		seen[k] = true
	}
	return nil
}

// Windows enumerates the length-L windows of the cyclic ring, in control-
// flow order starting from each kernel. For L < len(r) there are len(r)
// distinct windows; for L == len(r) all rotations describe the same loop,
// so a single window (the ring itself) is returned. L outside [1, len(r)]
// is an error.
func (r Ring) Windows(L int) ([][]string, error) {
	n := len(r)
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if L < 1 || L > n {
		return nil, fmt.Errorf("core: chain length %d out of range [1,%d]", L, n)
	}
	if L == n {
		return [][]string{append([]string(nil), r...)}, nil
	}
	windows := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		w := make([]string, L)
		for j := 0; j < L; j++ {
			w[j] = r[(i+j)%n]
		}
		windows = append(windows, w)
	}
	return windows, nil
}

// WindowsContaining returns the subset of Windows(L) that include kernel k.
// For L < len(r) every kernel appears in exactly L windows, which is the
// index set of the paper's coefficient formulas.
func (r Ring) WindowsContaining(k string, L int) ([][]string, error) {
	all, err := r.Windows(L)
	if err != nil {
		return nil, err
	}
	var out [][]string
	for _, w := range all {
		for _, name := range w {
			if name == k {
				out = append(out, w)
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: kernel %q not in ring %v", k, r)
	}
	return out, nil
}

// Key returns the canonical map key of a window: the kernel names joined
// with "|". Windows are order-sensitive (the chain A→B is measured with A
// immediately preceding B), so no sorting is applied.
func Key(window []string) string {
	return strings.Join(window, "|")
}
