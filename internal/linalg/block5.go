// Package linalg provides the small dense linear algebra the NAS-benchmark
// solvers are built from: 5×5 block operations for BT's block-tridiagonal
// systems, scalar pentadiagonal elimination primitives for SP, and dense
// Gaussian elimination used as the test oracle for both.
//
// The 5×5 kernels are written out with constant indices, the way NPB's own
// matmul_sub / matvec_sub / binvcrhs are: a block row of BT's elimination
// is a few hundred flops, and a loop nest over a[i*5+k] spends more on
// index arithmetic and bounds checks than on them. Unrolling is all they
// do. Every output element is produced by the IEEE-754 operations the loop
// nests in linalg_test.go perform, in that order: products accumulated
// k = 0…4 onto 0.0; multipliers formed with one local reciprocal per pivot
// and the solves dividing by each pivot, so no reciprocal is ever stored;
// no math.FMA. The tests hold kernels and loop nests equal bit for bit, so
// a kernel may be made faster but not differently rounded.
package linalg

import (
	"errors"
	"math"
)

// Mat5 is a dense 5×5 matrix in row-major order.
type Mat5 [25]float64

// Vec5 is a 5-component vector, matching the five solution components of
// the NAS benchmarks.
type Vec5 [5]float64

// ErrZeroPivot is FactorLU's failure: a pivot underflowed or is NaN, which
// signals a loss of the diagonal dominance the pivot-free elimination
// relies on. It carries no position; the caller knows which block it
// handed over.
var ErrZeroPivot = errors.New("linalg: zero pivot")

// SubMulMM subtracts a·b from dst. dst must not alias a or b.
func SubMulMM(dst, a, b *Mat5) {
	a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
	dst[0] -= 0.0 + a0*b[0] + a1*b[5] + a2*b[10] + a3*b[15] + a4*b[20]
	dst[1] -= 0.0 + a0*b[1] + a1*b[6] + a2*b[11] + a3*b[16] + a4*b[21]
	dst[2] -= 0.0 + a0*b[2] + a1*b[7] + a2*b[12] + a3*b[17] + a4*b[22]
	dst[3] -= 0.0 + a0*b[3] + a1*b[8] + a2*b[13] + a3*b[18] + a4*b[23]
	dst[4] -= 0.0 + a0*b[4] + a1*b[9] + a2*b[14] + a3*b[19] + a4*b[24]
	a0, a1, a2, a3, a4 = a[5], a[6], a[7], a[8], a[9]
	dst[5] -= 0.0 + a0*b[0] + a1*b[5] + a2*b[10] + a3*b[15] + a4*b[20]
	dst[6] -= 0.0 + a0*b[1] + a1*b[6] + a2*b[11] + a3*b[16] + a4*b[21]
	dst[7] -= 0.0 + a0*b[2] + a1*b[7] + a2*b[12] + a3*b[17] + a4*b[22]
	dst[8] -= 0.0 + a0*b[3] + a1*b[8] + a2*b[13] + a3*b[18] + a4*b[23]
	dst[9] -= 0.0 + a0*b[4] + a1*b[9] + a2*b[14] + a3*b[19] + a4*b[24]
	a0, a1, a2, a3, a4 = a[10], a[11], a[12], a[13], a[14]
	dst[10] -= 0.0 + a0*b[0] + a1*b[5] + a2*b[10] + a3*b[15] + a4*b[20]
	dst[11] -= 0.0 + a0*b[1] + a1*b[6] + a2*b[11] + a3*b[16] + a4*b[21]
	dst[12] -= 0.0 + a0*b[2] + a1*b[7] + a2*b[12] + a3*b[17] + a4*b[22]
	dst[13] -= 0.0 + a0*b[3] + a1*b[8] + a2*b[13] + a3*b[18] + a4*b[23]
	dst[14] -= 0.0 + a0*b[4] + a1*b[9] + a2*b[14] + a3*b[19] + a4*b[24]
	a0, a1, a2, a3, a4 = a[15], a[16], a[17], a[18], a[19]
	dst[15] -= 0.0 + a0*b[0] + a1*b[5] + a2*b[10] + a3*b[15] + a4*b[20]
	dst[16] -= 0.0 + a0*b[1] + a1*b[6] + a2*b[11] + a3*b[16] + a4*b[21]
	dst[17] -= 0.0 + a0*b[2] + a1*b[7] + a2*b[12] + a3*b[17] + a4*b[22]
	dst[18] -= 0.0 + a0*b[3] + a1*b[8] + a2*b[13] + a3*b[18] + a4*b[23]
	dst[19] -= 0.0 + a0*b[4] + a1*b[9] + a2*b[14] + a3*b[19] + a4*b[24]
	a0, a1, a2, a3, a4 = a[20], a[21], a[22], a[23], a[24]
	dst[20] -= 0.0 + a0*b[0] + a1*b[5] + a2*b[10] + a3*b[15] + a4*b[20]
	dst[21] -= 0.0 + a0*b[1] + a1*b[6] + a2*b[11] + a3*b[16] + a4*b[21]
	dst[22] -= 0.0 + a0*b[2] + a1*b[7] + a2*b[12] + a3*b[17] + a4*b[22]
	dst[23] -= 0.0 + a0*b[3] + a1*b[8] + a2*b[13] + a3*b[18] + a4*b[23]
	dst[24] -= 0.0 + a0*b[4] + a1*b[9] + a2*b[14] + a3*b[19] + a4*b[24]
}

// SubMulMV stores r - a·v into dst. dst may alias r (the forward step of
// the block elimination) or v (its back-substitution).
func SubMulMV(dst, r *Vec5, a *Mat5, v *Vec5) {
	v0, v1, v2, v3, v4 := v[0], v[1], v[2], v[3], v[4]
	x0 := r[0] - (0.0 + a[0]*v0 + a[1]*v1 + a[2]*v2 + a[3]*v3 + a[4]*v4)
	x1 := r[1] - (0.0 + a[5]*v0 + a[6]*v1 + a[7]*v2 + a[8]*v3 + a[9]*v4)
	x2 := r[2] - (0.0 + a[10]*v0 + a[11]*v1 + a[12]*v2 + a[13]*v3 + a[14]*v4)
	x3 := r[3] - (0.0 + a[15]*v0 + a[16]*v1 + a[17]*v2 + a[18]*v3 + a[19]*v4)
	x4 := r[4] - (0.0 + a[20]*v0 + a[21]*v1 + a[22]*v2 + a[23]*v3 + a[24]*v4)
	dst[0], dst[1], dst[2], dst[3], dst[4] = x0, x1, x2, x3, x4
}

// badPivot reports a pivot the elimination cannot divide by. The test is
// written so that NaN, which compares false against everything, is bad:
// |piv| < tiny would wave a poisoned block through.
func badPivot(piv float64) bool { return !(math.Abs(piv) >= 1e-300) }

// FactorLU replaces m by its LU factorization without pivoting, as the NAS
// BT solver does on blocks that are diagonally dominant by construction:
// the unit lower triangle's multipliers below the diagonal, U on and above
// it. It returns ErrZeroPivot, with m partly eliminated, when a pivot is
// smaller than 1e-300 in magnitude or NaN.
func FactorLU(m *Mat5) error {
	// Column 0.
	piv := m[0]
	if badPivot(piv) {
		return ErrZeroPivot
	}
	inv := 1 / piv
	u1, u2, u3, u4 := m[1], m[2], m[3], m[4]
	l := m[5] * inv
	m[5] = l
	m[6] -= l * u1
	m[7] -= l * u2
	m[8] -= l * u3
	m[9] -= l * u4
	l = m[10] * inv
	m[10] = l
	m[11] -= l * u1
	m[12] -= l * u2
	m[13] -= l * u3
	m[14] -= l * u4
	l = m[15] * inv
	m[15] = l
	m[16] -= l * u1
	m[17] -= l * u2
	m[18] -= l * u3
	m[19] -= l * u4
	l = m[20] * inv
	m[20] = l
	m[21] -= l * u1
	m[22] -= l * u2
	m[23] -= l * u3
	m[24] -= l * u4
	// Column 1.
	piv = m[6]
	if badPivot(piv) {
		return ErrZeroPivot
	}
	inv = 1 / piv
	u2, u3, u4 = m[7], m[8], m[9]
	l = m[11] * inv
	m[11] = l
	m[12] -= l * u2
	m[13] -= l * u3
	m[14] -= l * u4
	l = m[16] * inv
	m[16] = l
	m[17] -= l * u2
	m[18] -= l * u3
	m[19] -= l * u4
	l = m[21] * inv
	m[21] = l
	m[22] -= l * u2
	m[23] -= l * u3
	m[24] -= l * u4
	// Column 2.
	piv = m[12]
	if badPivot(piv) {
		return ErrZeroPivot
	}
	inv = 1 / piv
	u3, u4 = m[13], m[14]
	l = m[17] * inv
	m[17] = l
	m[18] -= l * u3
	m[19] -= l * u4
	l = m[22] * inv
	m[22] = l
	m[23] -= l * u3
	m[24] -= l * u4
	// Column 3.
	piv = m[18]
	if badPivot(piv) {
		return ErrZeroPivot
	}
	inv = 1 / piv
	u4 = m[19]
	l = m[23] * inv
	m[23] = l
	m[24] -= l * u4
	// The last pivot only has to exist.
	piv = m[24]
	if badPivot(piv) {
		return ErrZeroPivot
	}
	return nil
}

// SolveLUVec solves A·x = b for the A that FactorLU turned into m,
// overwriting b with x.
func SolveLUVec(m *Mat5, b *Vec5) {
	b0 := b[0]
	b1 := b[1] - m[5]*b0
	b2 := b[2] - m[10]*b0 - m[11]*b1
	b3 := b[3] - m[15]*b0 - m[16]*b1 - m[17]*b2
	b4 := b[4] - m[20]*b0 - m[21]*b1 - m[22]*b2 - m[23]*b3
	b4 = b4 / m[24]
	b3 = (b3 - m[19]*b4) / m[18]
	b2 = (b2 - m[13]*b3 - m[14]*b4) / m[12]
	b1 = (b1 - m[7]*b2 - m[8]*b3 - m[9]*b4) / m[6]
	b0 = (b0 - m[1]*b1 - m[2]*b2 - m[3]*b3 - m[4]*b4) / m[0]
	b[0], b[1], b[2], b[3], b[4] = b0, b1, b2, b3, b4
}

// SolveLUMat solves A·X = B for the A that FactorLU turned into m,
// overwriting B with X. All five columns move through each row together;
// each element sees the operations SolveLUVec would apply to its column.
// b must not alias m.
func SolveLUMat(m, b *Mat5) {
	// Forward substitution with the unit lower triangle, one row of B at a time.
	l0 := m[5]
	b[5] = b[5] - l0*b[0]
	b[6] = b[6] - l0*b[1]
	b[7] = b[7] - l0*b[2]
	b[8] = b[8] - l0*b[3]
	b[9] = b[9] - l0*b[4]
	l0, l1 := m[10], m[11]
	b[10] = b[10] - l0*b[0] - l1*b[5]
	b[11] = b[11] - l0*b[1] - l1*b[6]
	b[12] = b[12] - l0*b[2] - l1*b[7]
	b[13] = b[13] - l0*b[3] - l1*b[8]
	b[14] = b[14] - l0*b[4] - l1*b[9]
	l0, l1, l2 := m[15], m[16], m[17]
	b[15] = b[15] - l0*b[0] - l1*b[5] - l2*b[10]
	b[16] = b[16] - l0*b[1] - l1*b[6] - l2*b[11]
	b[17] = b[17] - l0*b[2] - l1*b[7] - l2*b[12]
	b[18] = b[18] - l0*b[3] - l1*b[8] - l2*b[13]
	b[19] = b[19] - l0*b[4] - l1*b[9] - l2*b[14]
	l0, l1, l2, l3 := m[20], m[21], m[22], m[23]
	b[20] = b[20] - l0*b[0] - l1*b[5] - l2*b[10] - l3*b[15]
	b[21] = b[21] - l0*b[1] - l1*b[6] - l2*b[11] - l3*b[16]
	b[22] = b[22] - l0*b[2] - l1*b[7] - l2*b[12] - l3*b[17]
	b[23] = b[23] - l0*b[3] - l1*b[8] - l2*b[13] - l3*b[18]
	b[24] = b[24] - l0*b[4] - l1*b[9] - l2*b[14] - l3*b[19]
	// Back substitution, dividing by each pivot.
	d := m[24]
	b[20] = b[20] / d
	b[21] = b[21] / d
	b[22] = b[22] / d
	b[23] = b[23] / d
	b[24] = b[24] / d
	d, u4 := m[18], m[19]
	b[15] = (b[15] - u4*b[20]) / d
	b[16] = (b[16] - u4*b[21]) / d
	b[17] = (b[17] - u4*b[22]) / d
	b[18] = (b[18] - u4*b[23]) / d
	b[19] = (b[19] - u4*b[24]) / d
	d, u3, u4 := m[12], m[13], m[14]
	b[10] = (b[10] - u3*b[15] - u4*b[20]) / d
	b[11] = (b[11] - u3*b[16] - u4*b[21]) / d
	b[12] = (b[12] - u3*b[17] - u4*b[22]) / d
	b[13] = (b[13] - u3*b[18] - u4*b[23]) / d
	b[14] = (b[14] - u3*b[19] - u4*b[24]) / d
	d, u2, u3, u4 := m[6], m[7], m[8], m[9]
	b[5] = (b[5] - u2*b[10] - u3*b[15] - u4*b[20]) / d
	b[6] = (b[6] - u2*b[11] - u3*b[16] - u4*b[21]) / d
	b[7] = (b[7] - u2*b[12] - u3*b[17] - u4*b[22]) / d
	b[8] = (b[8] - u2*b[13] - u3*b[18] - u4*b[23]) / d
	b[9] = (b[9] - u2*b[14] - u3*b[19] - u4*b[24]) / d
	d, u1, u2, u3, u4 := m[0], m[1], m[2], m[3], m[4]
	b[0] = (b[0] - u1*b[5] - u2*b[10] - u3*b[15] - u4*b[20]) / d
	b[1] = (b[1] - u1*b[6] - u2*b[11] - u3*b[16] - u4*b[21]) / d
	b[2] = (b[2] - u1*b[7] - u2*b[12] - u3*b[17] - u4*b[22]) / d
	b[3] = (b[3] - u1*b[8] - u2*b[13] - u3*b[18] - u4*b[23]) / d
	b[4] = (b[4] - u1*b[9] - u2*b[14] - u3*b[19] - u4*b[24]) / d
}
