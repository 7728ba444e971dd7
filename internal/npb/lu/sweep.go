package lu

import (
	"math"

	"repro/internal/mpi"
	"repro/internal/npb"
)

// Message tags.
const (
	tagXLo = 70 // u faces toward lower x
	tagXHi = 71
	tagYLo = 72
	tagYHi = 73

	tagLTWest  = 80 // lower sweep: boundary column flowing east
	tagLTSouth = 81 // lower sweep: boundary row flowing north
	tagUTEast  = 82 // upper sweep: boundary column flowing west
	tagUTNorth = 83 // upper sweep: boundary row flowing south
)

// ssorIter exchanges the solution's ghost faces with the four pencil
// neighbors and computes the residual rsd = dt·(frct - stencil(u)).
func (st *state) ssorIter() {
	st.exchangeFaces()
	st.computeResidual()
}

// exchangeFaces is the per-iteration halo exchange; face buffers are
// preallocated in newState so the steady state allocates nothing.
//
//kcvet:hotpath runs every solver iteration inside timed measurement windows
func (st *state) exchangeFaces() {
	u := st.u
	loX, hiX := st.loX, st.hiX
	if hiX >= 0 {
		u.PackFaceI(st.nxl-1, st.faceX)
		st.c.Send(hiX, tagXHi, st.faceX)
	}
	if loX >= 0 {
		u.PackFaceI(0, st.faceX)
		st.c.Send(loX, tagXLo, st.faceX)
	}
	if loX >= 0 {
		st.c.Recv(loX, tagXHi, st.faceX)
		u.UnpackFaceI(-1, st.faceX)
	} else {
		copyPlaneI(u, 0, -1)
	}
	if hiX >= 0 {
		st.c.Recv(hiX, tagXLo, st.faceX)
		u.UnpackFaceI(st.nxl, st.faceX)
	} else {
		copyPlaneI(u, st.nxl-1, st.nxl)
	}

	loY, hiY := st.loY, st.hiY
	if hiY >= 0 {
		u.PackFaceJ(st.nyl-1, st.faceY)
		st.c.Send(hiY, tagYHi, st.faceY)
	}
	if loY >= 0 {
		u.PackFaceJ(0, st.faceY)
		st.c.Send(loY, tagYLo, st.faceY)
	}
	if loY >= 0 {
		st.c.Recv(loY, tagYHi, st.faceY)
		u.UnpackFaceJ(-1, st.faceY)
	} else {
		copyPlaneJ(u, 0, -1)
	}
	if hiY >= 0 {
		st.c.Recv(hiY, tagYLo, st.faceY)
		u.UnpackFaceJ(st.nyl, st.faceY)
	} else {
		copyPlaneJ(u, st.nyl-1, st.nyl)
	}
}

func copyPlaneI(f *npb.Field, iSrc, iDst int) {
	for k := 0; k < f.Nz; k++ {
		for j := 0; j < f.Ny; j++ {
			src := f.Idx(iSrc, j, k)
			dst := f.Idx(iDst, j, k)
			copy(f.Data[dst:dst+f.NC], f.Data[src:src+f.NC])
		}
	}
}

func copyPlaneJ(f *npb.Field, jSrc, jDst int) {
	for k := 0; k < f.Nz; k++ {
		src := f.Idx(0, jSrc, k)
		dst := f.Idx(0, jDst, k)
		copy(f.Data[dst:dst+f.Nx*f.NC], f.Data[src:src+f.Nx*f.NC])
	}
}

// computeResidual evaluates rsd = dt·(frct - 0.05·u + (δ²x + δ²y + δ²z)flux(u))
// over the pencil, reading the ghost layer exchangeFaces just filled.
//
//kcvet:hotpath the stencil half of SSOR_ITER runs every solver iteration
func (st *state) computeResidual() {
	st.stencil.Apply(st.rsd, st.frct, st.u, st.cfg.Problem.Dt)
}

// relax is one value of either triangular sweep on a plane that has a
// neighbor plane: a, b and c are the already-swept neighbors along x, y and
// z, uc the solution at the cell.
func relax(v, a, b, c, uc float64) float64 {
	t := la*a + lb*b
	t += lc * c
	d := 1 + eps*uc
	return (v - omega*t*(1+eps*uc)) / d
}

// relaxOpen is relax on the plane each sweep starts from, which has no
// neighbor plane. The ghost plane there is zero, but adding lc·0 would turn
// a -0 sum into +0: the missing term is not an optimisation.
func relaxOpen(v, a, b, uc float64) float64 {
	t := la*a + lb*b
	d := 1 + eps*uc
	return (v - omega*t*(1+eps*uc)) / d
}

// ssorLT applies the lower-triangular sweep (D+ωL)⁻¹ in place on rsd,
// pipelined plane by plane: each z-plane first receives the neighboring
// boundary values from the west and south pencils, then sweeps its cells in
// ascending (j, i) order, then forwards its own east column and north row.
// Dependencies only point toward lower (cx, cy, k), so eager sends keep the
// diagonal pipeline deadlock-free.
//
// cell and west are the same row one cell apart: west[i] is the value the
// sweep stored at cell[i-5] (the ghost column's for the first cell), so a
// row runs at the latency of that chain — a multiply, three adds, two
// multiplies and a divide per cell.
//
//kcvet:hotpath one pipelined sweep per solver iteration inside timed windows
func (st *state) ssorLT() {
	u, rsd := st.u, st.rsd
	n := st.nxl * 5
	si, sj, sk := rsd.StrideI(), rsd.StrideJ(), rsd.StrideK()
	for k := 0; k < st.nz; k++ {
		if st.loX >= 0 {
			st.c.Recv(st.loX, tagLTWest, st.colBuf)
			unpackCol(rsd, -1, k, st.colBuf)
		}
		if st.loY >= 0 {
			st.c.Recv(st.loY, tagLTSouth, st.rowBuf)
			unpackRow(rsd, -1, k, st.rowBuf)
		}
		for j := 0; j < st.nyl; j++ {
			rb := rsd.Idx(0, j, k)
			ub := u.Idx(0, j, k)
			cell := rsd.Data[rb:][:n]
			west := rsd.Data[rb-si:][:n]
			south := rsd.Data[rb-sj:][:n]
			uRow := u.Data[ub:][:n]
			if k == 0 {
				for i := range cell {
					cell[i] = relaxOpen(cell[i], west[i], south[i], uRow[i])
				}
				continue
			}
			below := rsd.Data[rb-sk:][:n]
			for i := range cell {
				cell[i] = relax(cell[i], west[i], south[i], below[i], uRow[i])
			}
		}
		if st.hiX >= 0 {
			packCol(rsd, st.nxl-1, k, st.colBuf)
			st.c.Send(st.hiX, tagLTWest, st.colBuf)
		}
		if st.hiY >= 0 {
			packRow(rsd, st.nyl-1, k, st.rowBuf)
			st.c.Send(st.hiY, tagLTSouth, st.rowBuf)
		}
	}
}

// ssorUT applies the upper-triangular sweep in place on rsd, pipelined in
// the reverse direction: planes descend in k, cells descend in (j, i), and
// boundary values flow from the east and north pencils; east[i] is the
// value the sweep stored at cell[i+5].
//
//kcvet:hotpath one pipelined sweep per solver iteration inside timed windows
func (st *state) ssorUT() {
	u, rsd := st.u, st.rsd
	n := st.nxl * 5
	si, sj, sk := rsd.StrideI(), rsd.StrideJ(), rsd.StrideK()
	for k := st.nz - 1; k >= 0; k-- {
		if st.hiX >= 0 {
			st.c.Recv(st.hiX, tagUTEast, st.colBuf)
			unpackCol(rsd, st.nxl, k, st.colBuf)
		}
		if st.hiY >= 0 {
			st.c.Recv(st.hiY, tagUTNorth, st.rowBuf)
			unpackRow(rsd, st.nyl, k, st.rowBuf)
		}
		for j := st.nyl - 1; j >= 0; j-- {
			rb := rsd.Idx(0, j, k)
			ub := u.Idx(0, j, k)
			cell := rsd.Data[rb:][:n]
			east := rsd.Data[rb+si:][:n]
			north := rsd.Data[rb+sj:][:n]
			uRow := u.Data[ub:][:n]
			if k == st.nz-1 {
				for i := n - 1; i >= 0; i-- {
					cell[i] = relaxOpen(cell[i], east[i], north[i], uRow[i])
				}
				continue
			}
			above := rsd.Data[rb+sk:][:n]
			for i := n - 1; i >= 0; i-- {
				cell[i] = relax(cell[i], east[i], north[i], above[i], uRow[i])
			}
		}
		if st.loX >= 0 {
			packCol(rsd, 0, k, st.colBuf)
			st.c.Send(st.loX, tagUTEast, st.colBuf)
		}
		if st.loY >= 0 {
			packRow(rsd, 0, k, st.rowBuf)
			st.c.Send(st.loY, tagUTNorth, st.rowBuf)
		}
	}
}

// packCol copies column i of plane k (all j) into buf.
func packCol(f *npb.Field, i, k int, buf []float64) {
	n := 0
	for j := 0; j < f.Ny; j++ {
		base := f.Idx(i, j, k)
		n += copy(buf[n:n+f.NC], f.Data[base:base+f.NC])
	}
}

// unpackCol writes buf into column i (typically a ghost column) of plane k.
func unpackCol(f *npb.Field, i, k int, buf []float64) {
	n := 0
	for j := 0; j < f.Ny; j++ {
		base := f.Idx(i, j, k)
		copy(f.Data[base:base+f.NC], buf[n:n+f.NC])
		n += f.NC
	}
}

// packRow copies row j of plane k (all i) into buf.
func packRow(f *npb.Field, j, k int, buf []float64) {
	base := f.Idx(0, j, k)
	copy(buf[:f.Nx*f.NC], f.Data[base:base+f.Nx*f.NC])
}

// unpackRow writes buf into row j (typically a ghost row) of plane k.
func unpackRow(f *npb.Field, j, k int, buf []float64) {
	base := f.Idx(0, j, k)
	copy(f.Data[base:base+f.Nx*f.NC], buf[:f.Nx*f.NC])
}

// ssorRS updates the solution u += ω₂·rsd and computes the iteration's
// residual norms with an allreduce — the Newton-residual stage.
//
//kcvet:hotpath the solution update runs every solver iteration inside timed windows
func (st *state) ssorRS() {
	u, rsd := st.u, st.rsd
	n := st.nxl * 5
	var local [5]float64
	for k := 0; k < st.nz; k++ {
		for j := 0; j < st.nyl; j++ {
			ub := u.Idx(0, j, k)
			rb := rsd.Idx(0, j, k)
			uRow := u.Data[ub:][:n]
			rRow := rsd.Data[rb:][:n]
			for i := 0; i+5 <= n; i += 5 {
				uc, v := (*[5]float64)(uRow[i:i+5]), (*[5]float64)(rRow[i:i+5])
				uc[0] += omega2 * v[0]
				uc[1] += omega2 * v[1]
				uc[2] += omega2 * v[2]
				uc[3] += omega2 * v[3]
				uc[4] += omega2 * v[4]
				local[0] += v[0] * v[0]
				local[1] += v[1] * v[1]
				local[2] += v[2] * v[2]
				local[3] += v[3] * v[3]
				local[4] += v[4] * v[4]
			}
		}
	}
	var global [5]float64
	st.c.Allreduce(mpi.OpSum, local[:], global[:])
	cells := float64(st.cfg.Problem.Cells())
	for c := 0; c < 5; c++ {
		st.resNorms[c] = math.Sqrt(global[c] / cells)
	}
}

// errorNorms computes the RMS difference between the solution and the
// smooth reference field.
func (st *state) errorNorms() {
	var local [5]float64
	u := st.u
	for k, gz := range st.gz {
		cos := st.exactXYZ.One(k)
		for j := range st.gy {
			base := u.Idx(0, j, k)
			for i, gx := range st.gx {
				sin := st.exactXYZ.Two(i, j)
				for c := 0; c < 5; c++ {
					d := u.Data[base+i*5+c] - exactFrom(c, sin[c], cos[c], gx, gz)
					local[c] += d * d
				}
			}
		}
	}
	var global [5]float64
	st.c.Allreduce(mpi.OpSum, local[:], global[:])
	cells := float64(st.cfg.Problem.Cells())
	for c := 0; c < 5; c++ {
		st.errNorms[c] = math.Sqrt(global[c] / cells)
	}
}

// pintgr computes a surface integral of the first solution component over
// the physical boundary faces of the global domain.
func (st *state) pintgr() {
	u := st.u
	local := 0.0
	// x = 0 and x = N1-1 faces.
	if st.rx.Lo == 0 {
		for k := 0; k < st.nz; k++ {
			for j := 0; j < st.nyl; j++ {
				local += u.At(0, 0, j, k)
			}
		}
	}
	if st.rx.Hi == st.cfg.Problem.N1 {
		for k := 0; k < st.nz; k++ {
			for j := 0; j < st.nyl; j++ {
				local += u.At(0, st.nxl-1, j, k)
			}
		}
	}
	// y faces.
	if st.ry.Lo == 0 {
		for k := 0; k < st.nz; k++ {
			for i := 0; i < st.nxl; i++ {
				local += u.At(0, i, 0, k)
			}
		}
	}
	if st.ry.Hi == st.cfg.Problem.N2 {
		for k := 0; k < st.nz; k++ {
			for i := 0; i < st.nxl; i++ {
				local += u.At(0, i, st.nyl-1, k)
			}
		}
	}
	// z faces are fully local to every pencil.
	for j := 0; j < st.nyl; j++ {
		for i := 0; i < st.nxl; i++ {
			local += u.At(0, i, j, 0) + u.At(0, i, j, st.nz-1)
		}
	}
	st.surface = st.c.AllreduceScalar(mpi.OpSum, local)
}

// final computes the global verification norms of the solution.
func (st *state) final() {
	var local [5]float64
	u := st.u
	for k := 0; k < st.nz; k++ {
		for j := 0; j < st.nyl; j++ {
			base := u.Idx(0, j, k)
			for i := 0; i < st.nxl; i++ {
				for c := 0; c < 5; c++ {
					v := u.Data[base+i*5+c]
					local[c] += v * v
				}
			}
		}
	}
	var global [5]float64
	st.c.Allreduce(mpi.OpSum, local[:], global[:])
	cells := float64(st.cfg.Problem.Cells())
	for c := 0; c < 5; c++ {
		st.norms[c] = math.Sqrt(global[c] / cells)
	}
}
