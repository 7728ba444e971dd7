package sp

import "repro/internal/mpi"

// Message tags for the distributed line solves.
const (
	tagYFwd = 60
	tagYBwd = 61
	tagZFwd = 62
	tagZBwd = 63
)

// lineFamily is the geometry of one solve direction: inner×outer lines of n
// positions each, numbered inner index fastest, with the flat offsets of
// line 0's position 0 in the solution and the right-hand side and the
// strides from there along the two line indices and along the line. Walking
// it takes two nested counters where a line number took a % and a / a line.
type lineFamily struct {
	n, inner, outer       int
	u0, uIn, uOut, uAlong int
	r0, rIn, rOut, rAlong int
}

// family builds the lineFamily of the lines that run along one axis and are
// numbered by the other two, inner fastest; axes are 0, 1, 2 for x, y, z.
func (st *state) family(along, in, out int) lineFamily {
	u, rhs := st.u, st.rhs
	ext := [3]int{st.nx, st.nyl, st.nzl}
	us := [3]int{u.StrideI(), u.StrideJ(), u.StrideK()}
	rs := [3]int{rhs.StrideI(), rhs.StrideJ(), rhs.StrideK()}
	return lineFamily{
		n: ext[along], inner: ext[in], outer: ext[out],
		u0: u.Idx(0, 0, 0), uIn: us[in], uOut: us[out], uAlong: us[along],
		r0: rhs.Idx(0, 0, 0), rIn: rs[in], rOut: rs[out], rAlong: rs[along],
	}
}

// xSolve solves the five scalar pentadiagonal systems along x for every
// line of the tile; x is rank-local, so no communication.
func (st *state) xSolve() {
	st.solveLines(st.family(0, 1, 2), nil, 0, 0)
}

// ySolve solves along y, distributed over the ranks sharing this z
// coordinate; the forward sweep passes the last two normalized rows (six
// floats per component per line), the backward sweep the first two
// solution rows.
func (st *state) ySolve() {
	st.solveLines(st.family(1, 0, 2), st.commY, tagYFwd, tagYBwd)
}

// zSolve solves along z, distributed over the ranks sharing this y
// coordinate.
func (st *state) zSolve() {
	st.solveLines(st.family(2, 0, 1), st.commZ, tagZFwd, tagZBwd)
}

// at5 views the five components stored at data[off:] as an array, without
// copying them.
func at5(data []float64, off int) *[5]float64 {
	return (*[5]float64)(data[off : off+5])
}

// solveLines runs the (possibly distributed) pentadiagonal elimination for
// every line and every component. The five coefficients of component c at
// position t are built from the solution at the ±2 neighborhood,
//
//	b = 1 + 2r1 + 2r2 + ε·u_t      a1/c1 = -(r1 + ε·u_{t∓1})
//	a2/c2 = -(r2 + ε/2·u_{t∓2})
//
// which keeps each row diagonally dominant for all solution values the
// benchmark produces. After eliminating position t the row is held as
// x_t = rh_t - d1_t·x_{t+1} - d2_t·x_{t+2}; the elimination of the next row
// needs the previous two normalized rows, so rank boundaries pass exactly
// those. The right-hand side is overwritten with the solution.
//
// The five components of a line are five independent systems, so the loops
// run position-outer, component-inner: every array is touched five
// contiguous values at a time, and the previous two rows are read where the
// elimination stored them. Each component still sees its own operations in
// its own order.
//
//kcvet:hotpath the three line solves are the bulk of every SP loop iteration
func (st *state) solveLines(f lineFamily, comm *mpi.Comm, tagFwd, tagBwd int) {
	first, last := true, true
	if comm != nil && comm.Size() > 1 {
		first = comm.Rank() == 0
		last = comm.Rank() == comm.Size()-1
	}
	n := f.n
	nLines := f.inner * f.outer

	fwd := st.fwd[:nLines*30]
	if !first {
		comm.Recv(comm.Rank()-1, tagFwd, fwd)
	}

	uData := st.u.Data
	rData := st.rhs.Data
	us := f.uAlong

	l := 0
	for lo := 0; lo < f.outer; lo++ {
		for li := 0; li < f.inner; li++ {
			uOff := f.u0 + lo*f.uOut + li*f.uIn
			rOff := f.r0 + lo*f.rOut + li*f.rIn
			// Normalized rows t-2 and t-1: the previous rank's last two
			// to begin with (unused on the first rank), then wherever the
			// elimination stored them — nothing is carried by copying.
			var in [6][5]float64
			if !first {
				msg := (*[30]float64)(fwd[l*30 : l*30+30])
				for c := 0; c < 5; c++ {
					in[0][c], in[1][c], in[2][c] = msg[c*3], msg[c*3+1], msg[c*3+2]
					in[3][c], in[4][c], in[5][c] = msg[15+c*3], msg[15+c*3+1], msg[15+c*3+2]
				}
			}
			p2d1, p2d2, p2rh := &in[0], &in[1], &in[2]
			p1d1, p1d2, p1rh := &in[3], &in[4], &in[5]
			for t := 0; t < n; t++ {
				cu := uOff + t*us
				um2, um1 := at5(uData, cu-2*us), at5(uData, cu-us)
				u0 := at5(uData, cu)
				up1, up2 := at5(uData, cu+us), at5(uData, cu+2*us)
				r := at5(rData, rOff+t*f.rAlong)
				idx := (l*n + t) * 5
				od1, od2, orh := at5(st.d1, idx), at5(st.d2, idx), at5(st.rh, idx)
				has1 := !first || t >= 1
				has2 := !first || t >= 2
				// The global last two rows have no x_{t+2}, the last no
				// x_{t+1} either.
				end1 := last && t == n-1
				end2 := last && t >= n-2
				for c := 0; c < 5; c++ {
					a2 := -(r2 + 0.5*eps*um2[c])
					a1 := -(r1 + eps*um1[c])
					bb := 1 + 2*r1 + 2*r2 + eps*u0[c]
					cc1 := -(r1 + eps*up1[c])
					cc2 := -(r2 + 0.5*eps*up2[c])
					rr := r[c]
					a1eff := a1
					if has2 {
						rr -= a2 * p2rh[c]
						a1eff -= a2 * p2d1[c]
						bb -= a2 * p2d2[c]
					}
					if has1 {
						rr -= a1eff * p1rh[c]
						bb -= a1eff * p1d1[c]
						cc1 -= a1eff * p1d2[c]
					}
					inv := 1 / bb
					d1 := cc1 * inv
					d2 := cc2 * inv
					if end1 {
						d1 = 0
					}
					if end2 {
						d2 = 0
					}
					od1[c], od2[c], orh[c] = d1, d2, rr*inv
				}
				p2d1, p2d2, p2rh = p1d1, p1d2, p1rh
				p1d1, p1d2, p1rh = od1, od2, orh
			}
			if !last {
				// Rows n-2 and n-1 are now (p2*, p1*).
				msg := (*[30]float64)(fwd[l*30 : l*30+30])
				for c := 0; c < 5; c++ {
					msg[c*3], msg[c*3+1], msg[c*3+2] = p2d1[c], p2d2[c], p2rh[c]
					msg[15+c*3], msg[15+c*3+1], msg[15+c*3+2] = p1d1[c], p1d2[c], p1rh[c]
				}
			}
			l++
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
	var noNext [5]float64 // x_n on the last rank: zero, times a zero d2
	l = 0
	for lo := 0; lo < f.outer; lo++ {
		for li := 0; li < f.inner; li++ {
			rOff := f.r0 + lo*f.rOut + li*f.rIn
			b := (*[10]float64)(bwd[l*10 : l*10+10])
			// xp1 = x_{t+1}, xp2 = x_{t+2}: the next rank's first two to
			// begin with, then the rows just solved, where they lie. On
			// the last rank x_{n-1} = rh_{n-1} and there is no x_n.
			xp1, xp2 := at5(b[:], 0), at5(b[:], 5)
			start := n - 1
			if last {
				xp1, xp2 = at5(rData, rOff+(n-1)*f.rAlong), &noNext
				*xp1 = *at5(st.rh, (l*n+n-1)*5)
				start = n - 2
			}
			for t := start; t >= 0; t-- {
				idx := (l*n + t) * 5
				d1, d2, rh := at5(st.d1, idx), at5(st.d2, idx), at5(st.rh, idx)
				x := at5(rData, rOff+t*f.rAlong)
				for c := 0; c < 5; c++ {
					x[c] = rh[c] - d1[c]*xp1[c] - d2[c]*xp2[c]
				}
				xp2, xp1 = xp1, x
			}
			copy(b[:5], rData[rOff:rOff+5])
			copy(b[5:], rData[rOff+f.rAlong:rOff+f.rAlong+5])
			l++
		}
	}
	if !first {
		comm.Send(comm.Rank()-1, tagBwd, bwd)
	}
}
