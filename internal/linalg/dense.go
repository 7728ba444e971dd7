package linalg

import (
	"fmt"
	"math"
)

// DenseSolve solves the n×n system a·x = b by Gaussian elimination with
// partial pivoting, returning x. a and b are not modified. It is the test
// oracle for the structured solvers; O(n³) and allocation-heavy, so not
// for hot paths.
func DenseSolve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("linalg: dense system shape mismatch: %d rows, %d rhs", n, len(b))
	}
	// Work on copies.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("linalg: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)

	for p := 0; p < n; p++ {
		// Partial pivot.
		best := p
		for i := p + 1; i < n; i++ {
			if math.Abs(m[i][p]) > math.Abs(m[best][p]) {
				best = i
			}
		}
		if math.Abs(m[best][p]) < 1e-300 {
			return nil, fmt.Errorf("linalg: singular dense system at column %d", p)
		}
		m[p], m[best] = m[best], m[p]
		x[p], x[best] = x[best], x[p]

		inv := 1 / m[p][p]
		for i := p + 1; i < n; i++ {
			l := m[i][p] * inv
			if l == 0 {
				continue
			}
			for j := p; j < n; j++ {
				m[i][j] -= l * m[p][j]
			}
			x[i] -= l * x[p]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			//kcvet:ignore floatsum test oracle mirrors textbook back substitution; structured solvers are compared against it at tolerances far above ulp level
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}
