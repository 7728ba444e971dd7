package lu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/npbtest"
)

// The loop nests the row kernels replaced, kept verbatim as oracles: the
// kernels must reproduce their bits on every shape, not only the goldens'.

func loopNestFlux(u []float64, c int) float64 {
	return u[c] * (1 + 0.10*u[(c+1)%5])
}

func (st *state) loopNestResidual() {
	u, rsd, frct := st.u, st.rsd, st.frct
	dt := st.cfg.Problem.Dt
	sj := u.StrideJ()
	sk := u.StrideK()
	for k := 0; k < st.nz; k++ {
		for j := 0; j < st.nyl; j++ {
			ub := u.Idx(0, j, k)
			rb := rsd.Idx(0, j, k)
			fb := frct.Idx(0, j, k)
			for i := 0; i < st.nxl; i++ {
				cell := ub + i*5
				xm := cell - 5
				xp := cell + 5
				ym := cell - sj
				yp := cell + sj
				// z is rank-local: clamp at the physical boundary.
				zm := cell - sk
				if k == 0 {
					zm = cell
				}
				zp := cell + sk
				if k == st.nz-1 {
					zp = cell
				}
				rcell := rb + i*5
				for c := 0; c < 5; c++ {
					center := 6 * loopNestFlux(u.Data[cell:cell+5], c)
					lap := loopNestFlux(u.Data[xm:xm+5], c) + loopNestFlux(u.Data[xp:xp+5], c) +
						loopNestFlux(u.Data[ym:ym+5], c) + loopNestFlux(u.Data[yp:yp+5], c) +
						loopNestFlux(u.Data[zm:zm+5], c) + loopNestFlux(u.Data[zp:zp+5], c) - center
					rsd.Data[rcell+c] = dt * (frct.Data[fb+i*5+c] - u.Data[cell+c]*0.05 + lap)
				}
			}
		}
	}
}

func (st *state) loopNestLT() {
	u, rsd := st.u, st.rsd
	loX, hiX := st.Neighbours(0)
	loY, hiY := st.Neighbours(1)
	si := rsd.StrideI()
	sj := rsd.StrideJ()
	sk := rsd.StrideK()
	for k := 0; k < st.nz; k++ {
		if loX >= 0 {
			st.Comm().Recv(loX, tagLTWest, st.colBuf)
			unpackCol(rsd, -1, k, st.colBuf)
		}
		if loY >= 0 {
			st.Comm().Recv(loY, tagLTSouth, st.rowBuf)
			unpackRow(rsd, -1, k, st.rowBuf)
		}
		for j := 0; j < st.nyl; j++ {
			rb := rsd.Idx(0, j, k)
			ub := u.Idx(0, j, k)
			for i := 0; i < st.nxl; i++ {
				cell := rb + i*5
				ucell := ub + i*5
				for c := 0; c < 5; c++ {
					uc := u.Data[ucell+c]
					low := la*rsd.Data[cell-si+c] + lb*rsd.Data[cell-sj+c]
					if k > 0 {
						low += lc * rsd.Data[cell-sk+c]
					}
					d := 1 + eps*uc
					rsd.Data[cell+c] = (rsd.Data[cell+c] - omega*low*(1+eps*uc)) / d
				}
			}
		}
		if hiX >= 0 {
			packCol(rsd, st.nxl-1, k, st.colBuf)
			st.Comm().Send(hiX, tagLTWest, st.colBuf)
		}
		if hiY >= 0 {
			packRow(rsd, st.nyl-1, k, st.rowBuf)
			st.Comm().Send(hiY, tagLTSouth, st.rowBuf)
		}
	}
}

func (st *state) loopNestUT() {
	u, rsd := st.u, st.rsd
	loX, hiX := st.Neighbours(0)
	loY, hiY := st.Neighbours(1)
	si := rsd.StrideI()
	sj := rsd.StrideJ()
	sk := rsd.StrideK()
	for k := st.nz - 1; k >= 0; k-- {
		if hiX >= 0 {
			st.Comm().Recv(hiX, tagUTEast, st.colBuf)
			unpackCol(rsd, st.nxl, k, st.colBuf)
		}
		if hiY >= 0 {
			st.Comm().Recv(hiY, tagUTNorth, st.rowBuf)
			unpackRow(rsd, st.nyl, k, st.rowBuf)
		}
		for j := st.nyl - 1; j >= 0; j-- {
			rb := rsd.Idx(0, j, k)
			ub := u.Idx(0, j, k)
			for i := st.nxl - 1; i >= 0; i-- {
				cell := rb + i*5
				ucell := ub + i*5
				for c := 0; c < 5; c++ {
					uc := u.Data[ucell+c]
					up := la*rsd.Data[cell+si+c] + lb*rsd.Data[cell+sj+c]
					if k < st.nz-1 {
						up += lc * rsd.Data[cell+sk+c]
					}
					d := 1 + eps*uc
					rsd.Data[cell+c] = (rsd.Data[cell+c] - omega*up*(1+eps*uc)) / d
				}
			}
		}
		if loX >= 0 {
			packCol(rsd, 0, k, st.colBuf)
			st.Comm().Send(loX, tagUTEast, st.colBuf)
		}
		if loY >= 0 {
			packRow(rsd, 0, k, st.rowBuf)
			st.Comm().Send(loY, tagUTNorth, st.rowBuf)
		}
	}
}

func (st *state) loopNestRS() {
	u, rsd := st.u, st.rsd
	var local [5]float64
	for k := 0; k < st.nz; k++ {
		for j := 0; j < st.nyl; j++ {
			ub := u.Idx(0, j, k)
			rb := rsd.Idx(0, j, k)
			for i := 0; i < st.nxl; i++ {
				for c := 0; c < 5; c++ {
					v := rsd.Data[rb+i*5+c]
					u.Data[ub+i*5+c] += omega2 * v
					local[c] += v * v
				}
			}
		}
	}
	var global [5]float64
	st.Comm().Allreduce(mpi.OpSum, local[:], global[:])
	cells := float64(st.cfg.Problem.Cells())
	for c := 0; c < 5; c++ {
		st.resNorms[c] = math.Sqrt(global[c] / cells)
	}
}

// twin returns a state on the same communicator whose fields and message
// buffers are copies, for the oracle to run on.
func (st *state) twin() *state {
	tw := *st
	tw.u, tw.rsd, tw.frct = st.u.Clone(), st.rsd.Clone(), st.frct.Clone()
	tw.colBuf = make([]float64, len(st.colBuf))
	tw.rowBuf = make([]float64, len(st.rowBuf))
	return &tw
}

func (st *state) bits() string {
	return npbtest.BitsDigest(st.u.Data, st.rsd.Data, st.resNorms[:])
}

// shapeConfig is an LU instance over an nx×ny×nz grid.
func shapeConfig(nx, ny, nz, procs int) Config {
	return Config{Problem: npb.Problem{Class: "T", N1: nx, N2: ny, N3: nz, Trips: 1, Dt: 0.01}, Procs: procs}
}

// TestKernelsMatchLoopNests runs each row kernel and the loop nest it
// replaced on equal seeded fields, on every rank of pencil decompositions
// the goldens do not reach, and wants every bit of the solution, residual
// (ghosts included) and norms equal.
func TestKernelsMatchLoopNests(t *testing.T) {
	npbtest.SkipUnlessAMD64(t)
	kernels := []struct {
		name         string
		rows, oracle func(*state)
	}{
		{KSsorIter, (*state).computeResidual, (*state).loopNestResidual},
		{KSsorLT, (*state).ssorLT, (*state).loopNestLT},
		{KSsorUT, (*state).ssorUT, (*state).loopNestUT},
		{KSsorRS, (*state).ssorRS, (*state).loopNestRS},
	}
	for ci, cfg := range []Config{
		shapeConfig(3, 3, 3, 4), // ranks with nxl = 1, nyl = 1, both; nz = 3
		shapeConfig(3, 6, 3, 2), // one-cell rows beside two-cell rows
		shapeConfig(7, 5, 4, 4), // uneven pencils, 4×3 against 3×2
		shapeConfig(9, 7, 5, 8), // 4×2 pencil grid
		shapeConfig(6, 5, 4, 1),
	} {
		for _, nan := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/procs=%d/nan=%v", cfg.Problem, cfg.Procs, nan), func(t *testing.T) {
				withState(t, cfg, func(st *state) {
					rng := rand.New(rand.NewSource(int64(1000*ci + st.Comm().Rank())))
					for _, kn := range kernels {
						npbtest.FillRandom(rng, st.u.Data, false)
						npbtest.FillRandom(rng, st.frct.Data, false)
						npbtest.FillRandom(rng, st.rsd.Data, nan)
						ref := st.twin()
						kn.oracle(ref)
						kn.rows(st)
						if st.bits() != ref.bits() {
							t.Errorf("rank %d (%d×%d×%d): %s bits differ from the loop nest's",
								st.Comm().Rank(), st.nxl, st.nyl, st.nz, kn.name)
						}
					}
				})
			})
		}
	}
}

// TestSweepKeepsNegativeZeroAtTheOpenPlane is the case the hoisted plane
// test exists for. Plane 0 of SSOR_LT (plane nz-1 of SSOR_UT) has no plane
// beneath it; the zero ghost plane stands there, and adding lc·0 to a -0
// sum makes it +0, which the subtraction then carries into the residual's
// sign bit. In an all -0 residual over zero ghosts, the second cell of the
// open plane's second row is the first to have two -0 neighbors.
func TestSweepKeepsNegativeZeroAtTheOpenPlane(t *testing.T) {
	npbtest.SkipUnlessAMD64(t)
	negZero := math.Copysign(0, -1)
	for _, sweep := range []struct {
		name         string
		rows, oracle func(*state)
		second       func(*state) (i, j, k int)
	}{
		{KSsorLT, (*state).ssorLT, (*state).loopNestLT,
			func(*state) (i, j, k int) { return 1, 1, 0 }},
		{KSsorUT, (*state).ssorUT, (*state).loopNestUT,
			func(st *state) (i, j, k int) { return st.nxl - 2, st.nyl - 2, st.nz - 1 }},
	} {
		withState(t, shapeConfig(4, 3, 3, 1), func(st *state) {
			st.rsd.Zero()
			for k := 0; k < st.nz; k++ {
				for j := 0; j < st.nyl; j++ {
					for i := 0; i < st.nxl; i++ {
						for c := 0; c < 5; c++ {
							st.rsd.Set(c, i, j, k, negZero)
						}
					}
				}
			}
			ref := st.twin()
			sweep.oracle(ref)
			sweep.rows(st)
			if st.bits() != ref.bits() {
				t.Errorf("%s bits differ from the loop nest's", sweep.name)
			}
			// The loop nest's answer there: -0 - ω·(-0)·(1+ε·u) = +0.
			i, j, k := sweep.second(st)
			if v := st.rsd.At(0, i, j, k); v != 0 || math.Signbit(v) {
				t.Errorf("%s left %v at (%d,%d,%d), want +0", sweep.name, v, i, j, k)
			}
		})
	}
}

// TestKernelsDoNotAllocate: every loop kernel runs inside timed windows,
// where per-call garbage is GC noise in the numbers the study divides. On
// four ranks that includes the face exchange and the pipelined sweeps'
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
				{KSsorIter, st.ssorIter}, {KSsorLT, st.ssorLT}, {KSsorUT, st.ssorUT}, {KSsorRS, st.ssorRS},
			} {
				if k.name == KSsorRS && npbtest.RaceEnabled() {
					continue // its Allreduce takes pooled scratch on one rank too
				}
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

// benchState is one rank's share of class W on four ranks — a 17×17×33
// pencil — as a single-rank instance, so the sweeps time arithmetic alone.
func benchState(b *testing.B, fn func(*state)) {
	b.Helper()
	cfg := shapeConfig(17, 17, 33, 1)
	cfg.Problem.Dt = 1.5e-3
	err := mpi.Run(1, func(c *mpi.Comm) {
		st, err := newState(c, cfg)
		if err != nil {
			panic(err)
		}
		fn(st)
	})
	if err != nil {
		b.Fatal(err)
	}
}

func benchSweep(b *testing.B, rows, oracle func(*state)) {
	for _, v := range []struct {
		name string
		run  func(*state)
	}{{"rows", rows}, {"loopnest", oracle}} {
		b.Run(v.name, func(b *testing.B) {
			benchState(b, func(st *state) {
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if n%256 == 255 {
						// A sweep applied to its own output for long
						// enough decays into denormals.
						b.StopTimer()
						st.Refresh()
						b.StartTimer()
					}
					v.run(st)
				}
				cells := float64(st.nxl * st.nyl * st.nz)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
			})
		})
	}
}

// BenchmarkSweepLT and BenchmarkSweepUT time the triangular sweeps per
// cell as row loops and as the loop nests they replaced.
func BenchmarkSweepLT(b *testing.B) { benchSweep(b, (*state).ssorLT, (*state).loopNestLT) }
func BenchmarkSweepUT(b *testing.B) { benchSweep(b, (*state).ssorUT, (*state).loopNestUT) }
