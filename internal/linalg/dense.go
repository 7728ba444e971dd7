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

// BlockTridiagSolve solves the block-tridiagonal system with 5×5 blocks
//
//	A_i·x_{i-1} + B_i·x_i + C_i·x_{i+1} = r_i,   i = 0..n-1
//
// (A_0 and C_{n-1} are ignored) by sequential block Thomas elimination,
// overwriting r with the solution x. It is the serial reference the
// distributed BT line solver is tested against.
func BlockTridiagSolve(a, b, c []Mat5, r []Vec5) error {
	n := len(b)
	if len(a) != n || len(c) != n || len(r) != n {
		return fmt.Errorf("linalg: block tridiagonal shape mismatch")
	}
	// Normalized form after elimination of row i:
	//   x_i = rhat_i - Chat_i · x_{i+1}
	chat := make([]Mat5, n)
	rhat := make([]Vec5, n)

	var lu Mat5
	for i := 0; i < n; i++ {
		lu = b[i]
		rhat[i] = r[i]
		if i > 0 {
			// Substitute x_{i-1} = rhat_{i-1} - Chat_{i-1} x_i:
			//   (B_i - A_i·Chat_{i-1}) x_i + C_i x_{i+1} = r_i - A_i·rhat_{i-1}
			SubMulMM(&lu, &a[i], &chat[i-1])
			SubMulMV(&rhat[i], &rhat[i], &a[i], &rhat[i-1])
		}
		if err := FactorLU(&lu); err != nil {
			return fmt.Errorf("linalg: block row %d: %w", i, err)
		}
		if i < n-1 {
			chat[i] = c[i]
			SolveLUMat(&lu, &chat[i])
		}
		SolveLUVec(&lu, &rhat[i])
	}
	// Back substitution.
	r[n-1] = rhat[n-1]
	for i := n - 2; i >= 0; i-- {
		SubMulMV(&r[i], &rhat[i], &chat[i], &r[i+1])
	}
	return nil
}

// PentaSolve solves the scalar pentadiagonal system
//
//	a2_i·x_{i-2} + a1_i·x_{i-1} + b_i·x_i + c1_i·x_{i+1} + c2_i·x_{i+2} = r_i
//
// (out-of-range coefficients ignored) by sequential elimination,
// overwriting r with x. It is the serial reference for SP's distributed
// line solver.
func PentaSolve(a2, a1, b, c1, c2, r []float64) error {
	n := len(b)
	if len(a2) != n || len(a1) != n || len(c1) != n || len(c2) != n || len(r) != n {
		return fmt.Errorf("linalg: pentadiagonal shape mismatch")
	}
	// Normalized form after elimination of row i:
	//   x_i = rh_i - d1_i·x_{i+1} - d2_i·x_{i+2}
	d1 := make([]float64, n)
	d2 := make([]float64, n)
	rh := make([]float64, n)

	for i := 0; i < n; i++ {
		bb := b[i]
		cc1 := c1[i]
		cc2 := c2[i]
		rr := r[i]
		a1eff := a1[i]
		if i >= 2 {
			// Substitute x_{i-2} = rh_{i-2} - d1_{i-2}·x_{i-1} - d2_{i-2}·x_i:
			// the rh part moves to the right-hand side, the x_{i-1}
			// part folds into a1, the x_i part into b.
			f := a2[i]
			rr -= f * rh[i-2]
			a1eff -= f * d1[i-2]
			bb -= f * d2[i-2]
		}
		if i >= 1 {
			// Substitute x_{i-1} = rh_{i-1} - d1_{i-1}·x_i - d2_{i-1}·x_{i+1}.
			rr -= a1eff * rh[i-1]
			bb -= a1eff * d1[i-1]
			cc1 -= a1eff * d2[i-1]
		}
		if math.Abs(bb) < 1e-300 {
			return fmt.Errorf("linalg: zero pivot at pentadiagonal row %d", i)
		}
		inv := 1 / bb
		if i < n-1 {
			d1[i] = cc1 * inv
		}
		if i < n-2 {
			d2[i] = cc2 * inv
		}
		rh[i] = rr * inv
	}
	// Back substitution.
	r[n-1] = rh[n-1]
	if n >= 2 {
		r[n-2] = rh[n-2] - d1[n-2]*r[n-1]
	}
	for i := n - 3; i >= 0; i-- {
		r[i] = rh[i] - d1[i]*r[i+1] - d2[i]*r[i+2]
	}
	return nil
}
