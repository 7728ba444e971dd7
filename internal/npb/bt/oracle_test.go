package bt

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/npb"
	"repro/internal/npb/npbtest"
)

// The per-cell stencil npb.Stencil replaced, kept verbatim as the oracle:
// computeRHS must reproduce its bits on every shape, not only the goldens'.

func loopNestFlux(f, u *linalg.Vec5) {
	f[0] = u[0] * (1 + 0.10*u[1])
	f[1] = u[1] * (1 + 0.10*u[2])
	f[2] = u[2] * (1 + 0.10*u[3])
	f[3] = u[3] * (1 + 0.10*u[4])
	f[4] = u[4] * (1 + 0.10*u[0])
}

func (st *state) loopNestRHS() {
	u, rhs, forcing := st.u, st.rhs, st.forcing
	dt := st.cfg.Problem.Dt
	sj := u.StrideJ()
	sk := u.StrideK()
	var fc, fxm, fxp, fym, fyp, fzm, fzp linalg.Vec5
	for k := 0; k < st.nzl; k++ {
		for j := 0; j < st.nyl; j++ {
			ub := u.Idx(0, j, k)
			rb := rhs.Idx(0, j, k)
			fb := forcing.Idx(0, j, k)
			for i := 0; i < st.nx; i++ {
				cell := ub + i*5
				// x-neighbors: clamp at the (rank-local == global)
				// physical boundary for zero-gradient.
				xm := cell - 5
				if i == 0 {
					xm = cell
				}
				xp := cell + 5
				if i == st.nx-1 {
					xp = cell
				}
				uc := at5(u.Data, cell)
				loopNestFlux(&fc, uc)
				loopNestFlux(&fxm, at5(u.Data, xm))
				loopNestFlux(&fxp, at5(u.Data, xp))
				loopNestFlux(&fym, at5(u.Data, cell-sj))
				loopNestFlux(&fyp, at5(u.Data, cell+sj))
				loopNestFlux(&fzm, at5(u.Data, cell-sk))
				loopNestFlux(&fzp, at5(u.Data, cell+sk))
				out := at5(rhs.Data, rb+i*5)
				frc := at5(forcing.Data, fb+i*5)
				for c := 0; c < 5; c++ {
					center := 6 * fc[c]
					lap := fxm[c] + fxp[c] + fym[c] + fyp[c] + fzm[c] + fzp[c] - center
					out[c] = dt * (frc[c] - uc[c]*0.05 + lap)
				}
			}
		}
	}
}

// TestComputeRHSMatchesLoopNest runs the shared stencil as BT calls it and
// the loop nest it replaced on equal seeded fields, on every rank of tile
// decompositions the golden does not reach, and wants every bit equal.
func TestComputeRHSMatchesLoopNest(t *testing.T) {
	npbtest.SkipUnlessAMD64(t)
	shape := func(nx, ny, nz, procs int) Config {
		return Config{Problem: npb.Problem{Class: "T", N1: nx, N2: ny, N3: nz, Trips: 1, Dt: 0.01}, Procs: procs}
	}
	for ci, cfg := range []Config{
		shape(3, 3, 3, 4), // tiles one cell thick in y, in z, in both
		shape(7, 8, 7, 9), // uneven tiles, 3/3/2 by 3/2/2
		shape(5, 4, 6, 1),
	} {
		for _, nan := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/procs=%d/nan=%v", cfg.Problem, cfg.Procs, nan), func(t *testing.T) {
				withState(t, cfg, func(st *state) {
					rng := rand.New(rand.NewSource(int64(1000*ci + st.Comm().Rank())))
					npbtest.FillRandom(rng, st.u.Data, nan)
					npbtest.FillRandom(rng, st.forcing.Data, false)
					npbtest.FillRandom(rng, st.rhs.Data, false)
					ref := *st
					ref.rhs = npbtest.Clone(st.rhs)
					ref.loopNestRHS()
					st.computeRHS()
					if npbtest.BitsDigest(st.rhs.Data) != npbtest.BitsDigest(ref.rhs.Data) {
						t.Errorf("rank %d (%d×%d×%d): stencil bits differ from the loop nest's",
							st.Comm().Rank(), st.nx, st.nyl, st.nzl)
					}
				})
			})
		}
	}
}
