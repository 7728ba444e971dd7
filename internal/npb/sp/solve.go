package sp

import "repro/internal/mpi"

// Message tags for the distributed line solves.
const (
	tagYFwd = 60
	tagYBwd = 61
	tagZFwd = 62
	tagZBwd = 63
)

// xSolve solves the five scalar pentadiagonal systems along x for every
// line of the tile; x is rank-local, so no communication.
func (st *state) xSolve() {
	nLines := st.nyl * st.nzl
	st.solveLines(st.nx, nLines,
		func(l int) int { return st.u.Idx(0, l%st.nyl, l/st.nyl) }, st.u.StrideI(),
		func(l int) int { return st.rhs.Idx(0, l%st.nyl, l/st.nyl) }, st.rhs.StrideI(),
		nil, 0, 0)
}

// ySolve solves along y, distributed over the ranks sharing this z
// coordinate; the forward sweep passes the last two normalized rows (six
// floats per component per line), the backward sweep the first two
// solution rows.
func (st *state) ySolve() {
	nLines := st.nx * st.nzl
	st.solveLines(st.nyl, nLines,
		func(l int) int { return st.u.Idx(l%st.nx, 0, l/st.nx) }, st.u.StrideJ(),
		func(l int) int { return st.rhs.Idx(l%st.nx, 0, l/st.nx) }, st.rhs.StrideJ(),
		st.commY, tagYFwd, tagYBwd)
}

// zSolve solves along z, distributed over the ranks sharing this y
// coordinate.
func (st *state) zSolve() {
	nLines := st.nx * st.nyl
	st.solveLines(st.nzl, nLines,
		func(l int) int { return st.u.Idx(l%st.nx, l/st.nx, 0) }, st.u.StrideK(),
		func(l int) int { return st.rhs.Idx(l%st.nx, l/st.nx, 0) }, st.rhs.StrideK(),
		st.commZ, tagZFwd, tagZBwd)
}

// coeffs returns the five pentadiagonal coefficients of component c at one
// position, built from the solution at the ±2 neighborhood:
//
//	b = 1 + 2r1 + 2r2 + ε·u_t      a1/c1 = -(r1 + ε·u_{t∓1})
//	a2/c2 = -(r2 + ε/2·u_{t∓2})
//
// keeping each row diagonally dominant for all solution values the
// benchmark produces.
func coeffs(u []float64, cu, stride, c int) (a2, a1, b, c1, c2 float64) {
	a2 = -(r2 + 0.5*eps*u[cu-2*stride+c])
	a1 = -(r1 + eps*u[cu-stride+c])
	b = 1 + 2*r1 + 2*r2 + eps*u[cu+c]
	c1 = -(r1 + eps*u[cu+stride+c])
	c2 = -(r2 + 0.5*eps*u[cu+2*stride+c])
	return
}

// solveLines runs the (possibly distributed) pentadiagonal elimination for
// every line and every component. After eliminating position t the row is
// held as x_t = rh_t - d1_t·x_{t+1} - d2_t·x_{t+2}; the elimination of the
// next row needs the previous two normalized rows, so rank boundaries pass
// exactly those. The right-hand side is overwritten with the solution.
//
//kcvet:hotpath the three line solves are the bulk of every SP loop iteration
func (st *state) solveLines(n, nLines int, uBase func(int) int, uStride int,
	rBase func(int) int, rStride int, comm *mpi.Comm, tagFwd, tagBwd int) {

	first, last := true, true
	if comm != nil && comm.Size() > 1 {
		first = comm.Rank() == 0
		last = comm.Rank() == comm.Size()-1
	}

	fwd := st.fwd[:nLines*30]
	if !first {
		comm.Recv(comm.Rank()-1, tagFwd, fwd)
	}

	uData := st.u.Data
	rData := st.rhs.Data

	for l := 0; l < nLines; l++ {
		uOff := uBase(l)
		rOff := rBase(l)
		for c := 0; c < 5; c++ {
			// Normalized rows t-2 and t-1: (d1, d2, rh) each.
			var p2d1, p2d2, p2rh float64
			var p1d1, p1d2, p1rh float64
			has1, has2 := false, false
			if !first {
				bo := l*30 + c*3
				p2d1, p2d2, p2rh = fwd[bo], fwd[bo+1], fwd[bo+2]
				bo += 15
				p1d1, p1d2, p1rh = fwd[bo], fwd[bo+1], fwd[bo+2]
				has1, has2 = true, true
			}
			for t := 0; t < n; t++ {
				cu := uOff + t*uStride
				cr := rOff + t*rStride
				a2, a1, bb, cc1, cc2 := coeffs(uData, cu, uStride, c)
				rr := rData[cr+c]
				a1eff := a1
				if has2 {
					rr -= a2 * p2rh
					a1eff -= a2 * p2d1
					bb -= a2 * p2d2
				}
				if has1 {
					rr -= a1eff * p1rh
					bb -= a1eff * p1d1
					cc1 -= a1eff * p1d2
				}
				inv := 1 / bb
				d1 := cc1 * inv
				d2 := cc2 * inv
				if last && t == n-1 {
					d1, d2 = 0, 0
				} else if last && t == n-2 {
					d2 = 0
				}
				rhv := rr * inv
				idx := (l*n + t) * 5
				st.d1[idx+c] = d1
				st.d2[idx+c] = d2
				st.rh[idx+c] = rhv
				p2d1, p2d2, p2rh = p1d1, p1d2, p1rh
				p1d1, p1d2, p1rh = d1, d2, rhv
				has2 = has1
				has1 = true
			}
			if !last {
				// Rows n-2 and n-1 are now in (p2*, p1*).
				bo := l*30 + c*3
				fwd[bo], fwd[bo+1], fwd[bo+2] = p2d1, p2d2, p2rh
				bo += 15
				fwd[bo], fwd[bo+1], fwd[bo+2] = p1d1, p1d2, p1rh
			}
		}
	}
	if !last {
		comm.Send(comm.Rank()+1, tagFwd, fwd)
	}

	// Backward substitution.
	bwd := st.bwd[:nLines*10]
	if !last {
		comm.Recv(comm.Rank()+1, tagBwd, bwd)
	}
	for l := 0; l < nLines; l++ {
		rOff := rBase(l)
		for c := 0; c < 5; c++ {
			// xp1 = x_{t+1}, xp2 = x_{t+2}.
			var xp1, xp2 float64
			start := n - 1
			if last {
				idx := (l*n + n - 1) * 5
				xp1 = st.rh[idx+c]
				rData[rOff+(n-1)*rStride+c] = xp1
				start = n - 2
			} else {
				xp1 = bwd[l*10+c]
				xp2 = bwd[l*10+5+c]
			}
			for t := start; t >= 0; t-- {
				idx := (l*n + t) * 5
				x := st.rh[idx+c] - st.d1[idx+c]*xp1 - st.d2[idx+c]*xp2
				rData[rOff+t*rStride+c] = x
				xp2 = xp1
				xp1 = x
			}
			bwd[l*10+c] = rData[rOff+c]
			bwd[l*10+5+c] = rData[rOff+rStride+c]
		}
	}
	if !first {
		comm.Send(comm.Rank()-1, tagBwd, bwd)
	}
}
