package bt

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/mpi"
)

// Message tags for the distributed line solves.
const (
	tagYFwd = 60
	tagYBwd = 61
	tagZFwd = 62
	tagZBwd = 63
)

// xSolve solves the block-tridiagonal systems along x. The x dimension is
// not decomposed, so this kernel is communication-free: pure 5×5 block
// arithmetic streaming over the tile.
func (st *state) xSolve() {
	nLines := st.nyl * st.nzl
	st.solveLines(st.nx, nLines,
		func(l int) int { return st.u.Idx(0, l%st.nyl, l/st.nyl) }, st.u.StrideI(),
		func(l int) int { return st.rhs.Idx(0, l%st.nyl, l/st.nyl) }, st.rhs.StrideI(),
		nil, 0, 0)
}

// ySolve solves along y, distributed over the column of ranks that share
// this rank's z coordinate. Normalized boundary blocks (30 floats per
// line) flow toward increasing y in the forward sweep; solution vectors
// (5 floats per line) flow back.
func (st *state) ySolve() {
	nLines := st.nx * st.nzl
	st.solveLines(st.nyl, nLines,
		func(l int) int { return st.u.Idx(l%st.nx, 0, l/st.nx) }, st.u.StrideJ(),
		func(l int) int { return st.rhs.Idx(l%st.nx, 0, l/st.nx) }, st.rhs.StrideJ(),
		st.commY, tagYFwd, tagYBwd)
}

// zSolve solves along z, distributed over the row of ranks that share this
// rank's y coordinate.
func (st *state) zSolve() {
	nLines := st.nx * st.nyl
	st.solveLines(st.nzl, nLines,
		func(l int) int { return st.u.Idx(l%st.nx, l/st.nx, 0) }, st.u.StrideK(),
		func(l int) int { return st.rhs.Idx(l%st.nx, l/st.nx, 0) }, st.rhs.StrideK(),
		st.commZ, tagZFwd, tagZBwd)
}

// at5 views the five components stored at data[off:] as a vector, without
// copying them.
func at5(data []float64, off int) *linalg.Vec5 {
	return (*linalg.Vec5)(data[off : off+5])
}

// buildBlocks assembles the three 5×5 blocks of one row of the implicit
// system from the solution at the previous, current and next positions
// along the solve dimension:
//
//	B = (1+2r)·I + ε·u_t⊗w      A = -r·I + (ε/2)·u_{t-1}⊗w
//	C = -r·I + (ε/2)·u_{t+1}⊗w
//
// The rank-one perturbations keep the blocks solution-dependent (so the
// kernels genuinely reread u) while preserving the diagonal dominance the
// pivot-free factorization needs. The elimination treats them as dense
// blocks all the same: it keeps NPB BT's operation count (see DESIGN.md §2).
func buildBlocks(uPrev, uCur, uNext *linalg.Vec5, a, b, c *linalg.Mat5) {
	const (
		he = eps / 2
		dB = 1 + 2*rr
	)
	w0, w1, w2, w3, w4 := jacWeights[0], jacWeights[1], jacWeights[2], jacWeights[3], jacWeights[4]
	up, uc, un := he*uPrev[0], eps*uCur[0], he*uNext[0]
	a[0], a[1], a[2], a[3], a[4] = up*w0-rr, up*w1, up*w2, up*w3, up*w4
	b[0], b[1], b[2], b[3], b[4] = uc*w0+dB, uc*w1, uc*w2, uc*w3, uc*w4
	c[0], c[1], c[2], c[3], c[4] = un*w0-rr, un*w1, un*w2, un*w3, un*w4
	up, uc, un = he*uPrev[1], eps*uCur[1], he*uNext[1]
	a[5], a[6], a[7], a[8], a[9] = up*w0, up*w1-rr, up*w2, up*w3, up*w4
	b[5], b[6], b[7], b[8], b[9] = uc*w0, uc*w1+dB, uc*w2, uc*w3, uc*w4
	c[5], c[6], c[7], c[8], c[9] = un*w0, un*w1-rr, un*w2, un*w3, un*w4
	up, uc, un = he*uPrev[2], eps*uCur[2], he*uNext[2]
	a[10], a[11], a[12], a[13], a[14] = up*w0, up*w1, up*w2-rr, up*w3, up*w4
	b[10], b[11], b[12], b[13], b[14] = uc*w0, uc*w1, uc*w2+dB, uc*w3, uc*w4
	c[10], c[11], c[12], c[13], c[14] = un*w0, un*w1, un*w2-rr, un*w3, un*w4
	up, uc, un = he*uPrev[3], eps*uCur[3], he*uNext[3]
	a[15], a[16], a[17], a[18], a[19] = up*w0, up*w1, up*w2, up*w3-rr, up*w4
	b[15], b[16], b[17], b[18], b[19] = uc*w0, uc*w1, uc*w2, uc*w3+dB, uc*w4
	c[15], c[16], c[17], c[18], c[19] = un*w0, un*w1, un*w2, un*w3-rr, un*w4
	up, uc, un = he*uPrev[4], eps*uCur[4], he*uNext[4]
	a[20], a[21], a[22], a[23], a[24] = up*w0, up*w1, up*w2, up*w3, up*w4-rr
	b[20], b[21], b[22], b[23], b[24] = uc*w0, uc*w1, uc*w2, uc*w3, uc*w4+dB
	c[20], c[21], c[22], c[23], c[24] = un*w0, un*w1, un*w2, un*w3, un*w4-rr
}

// solveLines runs the (possibly distributed) block-Thomas elimination for
// every line of one dimension. n is the local line length, nLines the
// number of lines in the tile; uBase/rBase map a line index to the flat
// offset of position 0 in the solution and right-hand-side fields, with
// uStride/rStride the per-position offsets. comm is the ordered
// communicator along the solve dimension (nil, or size 1, for a rank-local
// solve). The right-hand side is overwritten with the solution.
//
// After eliminating position t, the row is held in normalized form
// x_t = rhat_t - chat_t·x_{t+1}; continuing the elimination on the next
// rank only needs (chat, rhat) of the last local row, so the forward
// message carries 30 floats per line and the backward message 5.
//
// Nothing is copied that does not have to be: C is assembled in its chat
// slot and solved there; the right-hand side is normalized where it lies,
// so the field holds r, then rhat, then x at each position and there is no
// rhat array; the previous row is a pointer into chat and the field (or
// into the received message).
//
//kcvet:hotpath the block elimination is nine tenths of a BT study's CPU time
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

	var a, b linalg.Mat5
	uData := st.u.Data
	rData := st.rhs.Data

	for l := 0; l < nLines; l++ {
		uOff := uBase(l)
		rOff := rBase(l)
		// The normalized row before the current one: the previous
		// rank's last for t = 0, none on the first rank.
		var prevC *linalg.Mat5
		var prevR *linalg.Vec5
		if !first {
			bo := l * 30
			prevC = (*linalg.Mat5)(fwd[bo : bo+25])
			prevR = at5(fwd, bo+25)
		}
		for t := 0; t < n; t++ {
			cu := uOff + t*uStride
			chat := &st.chat[l*n+t]
			r := at5(rData, rOff+t*rStride)
			// u_{t-1} and u_{t+1}: at tile edges these land in the
			// ghost layer, which COPY_FACES keeps current; at
			// physical boundaries the corresponding block is unused
			// by the elimination, and the ghost holds the
			// zero-gradient copy, so the access stays in bounds.
			buildBlocks(at5(uData, cu-uStride), at5(uData, cu), at5(uData, cu+uStride), &a, &b, chat)
			if prevC != nil {
				linalg.SubMulMM(&b, &a, prevC)
				linalg.SubMulMV(r, r, &a, prevR)
			}
			if err := linalg.FactorLU(&b); err != nil {
				panic(fmt.Sprintf("bt: lost diagonal dominance at line %d position %d: %v", l, t, err))
			}
			if last && t == n-1 {
				// Global last row: no x_{t+1} term.
				*chat = linalg.Mat5{}
			} else {
				linalg.SolveLUMat(&b, chat)
			}
			linalg.SolveLUVec(&b, r)
			prevC, prevR = chat, r
		}
		if !last {
			bo := l * 30
			copy(fwd[bo:bo+25], prevC[:])
			copy(fwd[bo+25:bo+30], prevR[:])
		}
	}
	if !last {
		comm.Send(comm.Rank()+1, tagFwd, fwd)
	}

	// Backward substitution.
	bwd := st.bwd[:nLines*5]
	if !last {
		comm.Recv(comm.Rank()+1, tagBwd, bwd)
	}
	for l := 0; l < nLines; l++ {
		rOff := rBase(l)
		// x_{t+1}: the next rank's first solution vector to begin with,
		// or, on the last rank, x_{n-1} = rhat_{n-1}, already in place.
		xNext := at5(bwd, l*5)
		start := n - 1
		if last {
			xNext = at5(rData, rOff+(n-1)*rStride)
			start = n - 2
		}
		for t := start; t >= 0; t-- {
			x := at5(rData, rOff+t*rStride)
			linalg.SubMulMV(x, x, &st.chat[l*n+t], xNext)
			xNext = x
		}
		copy(bwd[l*5:l*5+5], xNext[:])
	}
	if !first {
		comm.Send(comm.Rank()-1, tagBwd, bwd)
	}
}
