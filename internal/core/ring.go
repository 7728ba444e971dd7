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
// Rings are a handful of kernels, so each name is compared with the ones
// before it rather than entered in a set.
func (r Ring) Validate() error {
	if len(r) == 0 {
		return fmt.Errorf("core: empty kernel ring")
	}
	for i, k := range r {
		if k == "" {
			return fmt.Errorf("core: empty kernel name in ring")
		}
		for _, prev := range r[:i] {
			if prev == k {
				return fmt.Errorf("core: duplicate kernel %q in ring", k)
			}
		}
	}
	return nil
}

// Windows enumerates the length-L windows of the cyclic ring, in control-
// flow order starting from each kernel. For L < len(r) there are len(r)
// distinct windows; for L == len(r) all rotations describe the same loop,
// so a single window (the ring itself) is returned. L outside [1, len(r)]
// is an error.
//
// The windows are read-only views into one array the call allocates —
// the ring followed by its first L-1 kernels again — so enumerating them
// costs two allocations however many there are. Each view's capacity
// ends with it, so appending to one copies instead of overwriting the
// next.
func (r Ring) Windows(L int) ([][]string, error) {
	n := len(r)
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if L < 1 || L > n {
		return nil, fmt.Errorf("core: chain length %d out of range [1,%d]", L, n)
	}
	count := n
	if L == n {
		count = 1
	}
	unrolled := make([]string, n+L-1)
	copy(unrolled, r)
	copy(unrolled[n:], r)
	windows := make([][]string, count)
	for i := range windows {
		windows[i] = unrolled[i : i+L : i+L]
	}
	return windows, nil
}

// Key returns the canonical map key of a window: the kernel names joined
// with "|". Windows are order-sensitive (the chain A→B is measured with A
// immediately preceding B), so no sorting is applied.
func Key(window []string) string {
	return strings.Join(window, "|")
}

// keyBuf is the stack buffer a window key is joined into for a lookup:
// room for any window of this repository's workloads; a longer key grows
// onto the heap.
const keyBuf = 128

// appendKey appends Key(window) to b.
func appendKey(b []byte, window []string) []byte {
	for i, k := range window {
		if i > 0 {
			b = append(b, '|')
		}
		b = append(b, k...)
	}
	return b
}
