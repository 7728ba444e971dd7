package npb_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/npb"
	"repro/internal/npb/npbtest"
)

// loopNestStencil is the per-cell loop nest Stencil.Apply replaced — the
// body bt.computeRHS, sp.computeRHS and lu.computeResidual each carried,
// with the two things they differed in as parameters. It is the oracle:
// Apply must produce its bits.
func loopNestStencil(out, frc, u *npb.Field, dt float64, shift int, clamp npb.Axis) {
	flux := func(u []float64, c int) float64 {
		return u[c] * (1 + 0.10*u[(c+shift)%5])
	}
	sj := u.StrideJ()
	sk := u.StrideK()
	for k := 0; k < u.Nz; k++ {
		for j := 0; j < u.Ny; j++ {
			ub := u.Idx(0, j, k)
			rb := out.Idx(0, j, k)
			fb := frc.Idx(0, j, k)
			for i := 0; i < u.Nx; i++ {
				cell := ub + i*5
				xm := cell - 5
				xp := cell + 5
				ym := cell - sj
				yp := cell + sj
				zm := cell - sk
				zp := cell + sk
				if clamp == npb.AxisX {
					if i == 0 {
						xm = cell
					}
					if i == u.Nx-1 {
						xp = cell
					}
				} else {
					if k == 0 {
						zm = cell
					}
					if k == u.Nz-1 {
						zp = cell
					}
				}
				for c := 0; c < 5; c++ {
					center := 6 * flux(u.Data[cell:cell+5], c)
					lap := flux(u.Data[xm:xm+5], c) + flux(u.Data[xp:xp+5], c) +
						flux(u.Data[ym:ym+5], c) + flux(u.Data[yp:yp+5], c) +
						flux(u.Data[zm:zm+5], c) + flux(u.Data[zp:zp+5], c) - center
					out.Data[rb+i*5+c] = dt * (frc.Data[fb+i*5+c] - u.Data[cell+c]*0.05 + lap)
				}
			}
		}
	}
}

// stencilShape is one field geometry and parameterisation of the stencil.
type stencilShape struct {
	name       string
	nx, ny, nz int
	gU, gOut   int
	shift      int
	clamp      npb.Axis
}

func (sh stencilShape) fields() (out, frc, u *npb.Field) {
	return npb.NewField(5, sh.nx, sh.ny, sh.nz, sh.gOut),
		npb.NewField(5, sh.nx, sh.ny, sh.nz, 0),
		npb.NewField(5, sh.nx, sh.ny, sh.nz, sh.gU)
}

func TestStencilMatchesLoopNest(t *testing.T) {
	npbtest.SkipUnlessAMD64(t)
	shapes := []stencilShape{
		{"one-cell-rows", 1, 4, 3, 1, 1, 1, npb.AxisZ},
		{"one-row-planes", 4, 1, 3, 1, 1, 1, npb.AxisZ},
		{"single-column", 1, 1, 3, 1, 1, 1, npb.AxisZ},
		{"single-plane", 3, 2, 1, 1, 1, 1, npb.AxisZ},
		{"lu-uneven", 5, 4, 7, 1, 1, 1, npb.AxisZ},
		{"bt-tile", 7, 3, 4, 1, 0, 1, npb.AxisX},
		{"bt-one-wide", 1, 2, 2, 1, 0, 1, npb.AxisX},
		{"sp-ghost-2", 6, 3, 2, 2, 0, 2, npb.AxisX},
		{"sp-one-wide", 1, 2, 3, 2, 0, 2, npb.AxisX},
		{"shift-2-clamp-z", 3, 3, 3, 2, 2, 2, npb.AxisZ},
	}
	for si, sh := range shapes {
		for _, nan := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/nan=%v", sh.name, nan), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100 + si)))
				out, frc, u := sh.fields()
				npbtest.FillRandom(rng, u.Data, nan)
				npbtest.FillRandom(rng, frc.Data, false)
				npbtest.FillRandom(rng, out.Data, false)
				want := npbtest.Clone(out)
				loopNestStencil(want, frc, u, 0.015, sh.shift, sh.clamp)
				st := npb.NewStencil(u, sh.shift, sh.clamp)
				// Twice: the ring must carry nothing from one call to
				// the next.
				for pass := 0; pass < 2; pass++ {
					st.Apply(out, frc, u, 0.015)
					if got, ref := npbtest.BitsDigest(out.Data), npbtest.BitsDigest(want.Data); got != ref {
						t.Fatalf("pass %d: stencil bits differ from the loop nest's", pass)
					}
				}
			})
		}
	}
}

func TestStencilDoesNotAllocate(t *testing.T) {
	sh := stencilShape{"", 6, 5, 4, 1, 1, 1, npb.AxisZ}
	out, frc, u := sh.fields()
	st := npb.NewStencil(u, 1, npb.AxisZ)
	if n := testing.AllocsPerRun(5, func() { st.Apply(out, frc, u, 0.01) }); n != 0 {
		t.Errorf("Apply allocates %v times per call, want 0", n)
	}
}

// BenchmarkStencil times the residual stencil per cell on one rank's tile
// of each benchmark's class-W, four-rank decomposition, as the flux ring
// evaluates it and as the per-cell loop nest it replaced did.
func BenchmarkStencil(b *testing.B) {
	for _, sh := range []stencilShape{
		{"BT", 32, 16, 16, 1, 0, 1, npb.AxisX},
		{"SP", 36, 18, 18, 2, 0, 2, npb.AxisX},
		{"LU", 17, 17, 33, 1, 1, 1, npb.AxisZ},
	} {
		out, frc, u := sh.fields()
		// Ordinary values only: a denormal costs a microcode assist no
		// benchmark field pays.
		rng := rand.New(rand.NewSource(7))
		for i := range u.Data {
			u.Data[i] = 1 + rng.Float64()
		}
		cells := float64(sh.nx * sh.ny * sh.nz)
		report := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
		}
		b.Run(sh.name+"/ring", func(b *testing.B) {
			st := npb.NewStencil(u, sh.shift, sh.clamp)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				st.Apply(out, frc, u, 0.0015)
			}
			report(b)
		})
		b.Run(sh.name+"/loopnest", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				loopNestStencil(out, frc, u, 0.0015, sh.shift, sh.clamp)
			}
			report(b)
		})
	}
}
