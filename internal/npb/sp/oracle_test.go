package sp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/npbtest"
)

// The loop nests the kernels replaced, kept verbatim as oracles: the
// kernels must reproduce their bits on every shape, not only the goldens'.

func loopNestFlux(u []float64, c int) float64 {
	return u[c] * (1 + 0.10*u[(c+2)%5])
}

func (st *state) loopNestRHS() {
	u, rhs, forcing := st.u, st.rhs, st.forcing
	dt := st.cfg.Problem.Dt
	sj := u.StrideJ()
	sk := u.StrideK()
	for k := 0; k < st.nzl; k++ {
		for j := 0; j < st.nyl; j++ {
			ub := u.Idx(0, j, k)
			rb := rhs.Idx(0, j, k)
			fb := forcing.Idx(0, j, k)
			for i := 0; i < st.nx; i++ {
				cell := ub + i*5
				xm := cell - 5
				if i == 0 {
					xm = cell
				}
				xp := cell + 5
				if i == st.nx-1 {
					xp = cell
				}
				ym := cell - sj
				yp := cell + sj
				zm := cell - sk
				zp := cell + sk
				for c := 0; c < 5; c++ {
					center := 6 * loopNestFlux(u.Data[cell:cell+5], c)
					lap := loopNestFlux(u.Data[xm:xm+5], c) + loopNestFlux(u.Data[xp:xp+5], c) +
						loopNestFlux(u.Data[ym:ym+5], c) + loopNestFlux(u.Data[yp:yp+5], c) +
						loopNestFlux(u.Data[zm:zm+5], c) + loopNestFlux(u.Data[zp:zp+5], c) - center
					rhs.Data[rb+i*5+c] = dt * (forcing.Data[fb+i*5+c] - u.Data[cell+c]*0.05 + lap)
				}
			}
		}
	}
}

// coeffs returns the five pentadiagonal coefficients of component c at one
// position (see solveLines).
func coeffs(u []float64, cu, stride, c int) (a2, a1, b, c1, c2 float64) {
	a2 = -(r2 + 0.5*eps*u[cu-2*stride+c])
	a1 = -(r1 + eps*u[cu-stride+c])
	b = 1 + 2*r1 + 2*r2 + eps*u[cu+c]
	c1 = -(r1 + eps*u[cu+stride+c])
	c2 = -(r2 + 0.5*eps*u[cu+2*stride+c])
	return
}

func (st *state) loopNestXSolve() {
	nLines := st.nyl * st.nzl
	st.loopNestSolveLines(st.nx, nLines,
		func(l int) int { return st.u.Idx(0, l%st.nyl, l/st.nyl) }, st.u.StrideI(),
		func(l int) int { return st.rhs.Idx(0, l%st.nyl, l/st.nyl) }, st.rhs.StrideI(),
		nil, 0, 0)
}

func (st *state) loopNestYSolve() {
	nLines := st.nx * st.nzl
	st.loopNestSolveLines(st.nyl, nLines,
		func(l int) int { return st.u.Idx(l%st.nx, 0, l/st.nx) }, st.u.StrideJ(),
		func(l int) int { return st.rhs.Idx(l%st.nx, 0, l/st.nx) }, st.rhs.StrideJ(),
		st.commY, tagYFwd, tagYBwd)
}

func (st *state) loopNestZSolve() {
	nLines := st.nx * st.nyl
	st.loopNestSolveLines(st.nzl, nLines,
		func(l int) int { return st.u.Idx(l%st.nx, l/st.nx, 0) }, st.u.StrideK(),
		func(l int) int { return st.rhs.Idx(l%st.nx, l/st.nx, 0) }, st.rhs.StrideK(),
		st.commZ, tagZFwd, tagZBwd)
}

func (st *state) loopNestSolveLines(n, nLines int, uBase func(int) int, uStride int,
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

// twin returns a state on the same communicators whose fields, work arrays
// and message buffers are copies, for the oracle to run on.
func (st *state) twin() *state {
	tw := *st
	tw.u, tw.rhs, tw.forcing = st.u.Clone(), st.rhs.Clone(), st.forcing.Clone()
	clone := func(s []float64) []float64 { return append([]float64(nil), s...) }
	tw.d1, tw.d2, tw.rh = clone(st.d1), clone(st.d2), clone(st.rh)
	tw.fwd, tw.bwd = clone(st.fwd), clone(st.bwd)
	return &tw
}

// bits digests everything a kernel writes: the fields, the elimination's
// work arrays and the boundary messages as last packed.
func (st *state) bits() string {
	return npbtest.BitsDigest(st.u.Data, st.rhs.Data, st.d1, st.d2, st.rh, st.fwd, st.bwd)
}

// shapeConfig is an SP instance over an nx×ny×nz grid.
func shapeConfig(nx, ny, nz, procs int) Config {
	return Config{Problem: npb.Problem{Class: "T", N1: nx, N2: ny, N3: nz, Trips: 1, Dt: 0.015}, Procs: procs}
}

// TestKernelsMatchLoopNests runs each kernel and the loop nest it replaced
// on equal seeded fields, on every rank of decompositions the goldens do
// not reach — nine ranks give each distributed line a first, a middle and
// a last rank — and wants every bit they write equal.
func TestKernelsMatchLoopNests(t *testing.T) {
	npbtest.SkipUnlessAMD64(t)
	kernels := []struct {
		name             string
		kernel, loopNest func(*state)
	}{
		{KCopyFaces, (*state).computeRHS, (*state).loopNestRHS},
		{KXSolve, (*state).xSolve, (*state).loopNestXSolve},
		{KYSolve, (*state).ySolve, (*state).loopNestYSolve},
		{KZSolve, (*state).zSolve, (*state).loopNestZSolve},
	}
	for ci, cfg := range []Config{
		shapeConfig(5, 6, 7, 9), // two-deep tiles, uneven in z
		shapeConfig(7, 8, 7, 9), // uneven tiles, 3/3/2 by 3/2/2
		shapeConfig(6, 5, 7, 4), // first and last only, uneven
		shapeConfig(5, 5, 6, 1),
	} {
		for _, nan := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/procs=%d/nan=%v", cfg.Problem, cfg.Procs, nan), func(t *testing.T) {
				withState(t, cfg, func(st *state) {
					rng := rand.New(rand.NewSource(int64(1000*ci + st.Comm().Rank())))
					for _, kn := range kernels {
						npbtest.FillRandom(rng, st.u.Data, false)
						npbtest.FillRandom(rng, st.forcing.Data, false)
						npbtest.FillRandom(rng, st.rhs.Data, nan)
						ref := st.twin()
						kn.loopNest(ref)
						kn.kernel(st)
						if st.bits() != ref.bits() {
							t.Errorf("rank %d (%d×%d×%d): %s bits differ from the loop nest's",
								st.Comm().Rank(), st.nx, st.nyl, st.nzl, kn.name)
						}
					}
				})
			})
		}
	}
}

// TestKernelsDoNotAllocate: every loop kernel runs inside timed windows,
// where per-call garbage is GC noise in the numbers the study divides. On
// four ranks that includes the face exchange and the line solves' boundary
// messages, whose payloads ride the world's pools.
func TestKernelsDoNotAllocate(t *testing.T) {
	for _, procs := range []int{1, 4} {
		if procs > 1 && npbtest.RaceEnabled() {
			continue // sync.Pool drops Puts under -race, and message payloads ride pools
		}
		err := mpi.Run(procs, func(c *mpi.Comm) {
			st, err := newState(c, tinyConfig(8, procs))
			if err != nil {
				panic(err)
			}
			for _, k := range []struct {
				name   string
				kernel func()
			}{
				{KCopyFaces, st.copyFaces}, {KTxinvr, st.txinvr}, {KXSolve, st.xSolve},
				{KYSolve, st.ySolve}, {KZSolve, st.zSolve}, {KAdd, st.add},
			} {
				if n := npbtest.AllocsInStep(c, k.kernel); n != 0 {
					t.Errorf("procs=%d: %s allocates %v times per call, want 0", procs, k.name, n)
				}
				st.Refresh()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkSolveLines times the pentadiagonal line solves per cell on one
// rank's share of class W on four ranks — a 36×18×18 tile, as a single-rank
// instance so the figure is arithmetic alone — position-outer as they run
// and as the component-outer loop nest they replaced.
func BenchmarkSolveLines(b *testing.B) {
	cfg := shapeConfig(36, 18, 18, 1)
	cfg.Problem.Dt = 0.0015
	for _, dir := range []struct {
		name             string
		kernel, loopNest func(*state)
	}{
		{"x", (*state).xSolve, (*state).loopNestXSolve},
		{"y", (*state).ySolve, (*state).loopNestYSolve},
		{"z", (*state).zSolve, (*state).loopNestZSolve},
	} {
		for _, v := range []struct {
			name string
			run  func(*state)
		}{{"interchanged", dir.kernel}, {"loopnest", dir.loopNest}} {
			b.Run(dir.name+"/"+v.name, func(b *testing.B) {
				err := mpi.Run(1, func(c *mpi.Comm) {
					st, err := newState(c, cfg)
					if err != nil {
						panic(err)
					}
					b.ResetTimer()
					for n := 0; n < b.N; n++ {
						if n%256 == 255 {
							// A solve applied to its own output for
							// long enough decays into denormals.
							b.StopTimer()
							st.Refresh()
							b.StartTimer()
						}
						v.run(st)
					}
					cells := float64(st.nx * st.nyl * st.nzl)
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
