// Package grid provides the domain-decomposition arithmetic shared by the
// NAS-benchmark reimplementations: balanced 1-D block ranges, the square
// process grids BT and SP require, and the power-of-two pencil partitions
// LU uses (the grid is halved repeatedly in the first two dimensions,
// alternately x then y, per the paper's description).
package grid

import "fmt"

// Range is a half-open index interval [Lo, Hi) owned by one rank along one
// dimension.
type Range struct {
	Lo, Hi int
}

// N returns the number of indices in the range.
func (r Range) N() int { return r.Hi - r.Lo }

// Block1D splits n indices over p parts and returns part r's range.
// The first n%p parts get one extra index, so sizes differ by at most one.
func Block1D(n, p, r int) Range {
	if p <= 0 || r < 0 || r >= p {
		panic(fmt.Sprintf("grid: Block1D(n=%d, p=%d, r=%d) invalid", n, p, r))
	}
	base := n / p
	rem := n % p
	lo := r*base + min(r, rem)
	size := base
	if r < rem {
		size++
	}
	return Range{Lo: lo, Hi: lo + size}
}

// SquareSide returns s where s*s == p, or an error when p is not a perfect
// square. BT and SP require square process counts.
func SquareSide(p int) (int, error) {
	for s := 1; s*s <= p; s++ {
		if s*s == p {
			return s, nil
		}
	}
	return 0, fmt.Errorf("grid: %d processes is not a perfect square (BT/SP requirement)", p)
}

// IsPowerOfTwo reports whether p is a positive power of two (the LU
// requirement).
func IsPowerOfTwo(p int) bool {
	return p > 0 && p&(p-1) == 0
}

// PencilDims returns the 2-D process grid (px, py) LU uses for p ranks:
// the domain is halved repeatedly, alternately in x then y, so for
// p = 2^k, px = 2^ceil(k/2) and py = 2^floor(k/2).
func PencilDims(p int) (px, py int, err error) {
	if !IsPowerOfTwo(p) {
		return 0, 0, fmt.Errorf("grid: %d processes is not a power of two (LU requirement)", p)
	}
	px, py = 1, 1
	halveX := true
	for p > 1 {
		if halveX {
			px *= 2
		} else {
			py *= 2
		}
		halveX = !halveX
		p /= 2
	}
	return px, py, nil
}
