package npb

import "fmt"

// fluxEps scales the nonlinearity of the flux the residual stencil
// differences.
const fluxEps = 0.10

// Axis names a grid dimension.
type Axis int

// The axes a Stencil can clamp.
const (
	AxisX Axis = iota
	AxisZ
)

// Stencil evaluates the right-hand side BT, SP and LU all difference their
// solution with,
//
//	out = dt·(frc − 0.05·u + Σ₆ flux(neighbour) − 6·flux(u))
//	flux(u)_c = u_c·(1 + fluxEps·u_{(c+shift) mod 5})
//
// over one rank's tile. Two of the three axes are decomposed over ranks and
// read the ghost layer the benchmark's face exchange keeps current; along
// the third, clamp, the tile is the whole domain and a neighbour past
// either end is the cell itself (zero gradient).
//
// A cell's flux is evaluated once, into a ring of three padded z-planes
// (k−1, k, k+1), where differencing it per cell would evaluate it seven
// times; the sum then runs over contiguous rows of the ring. The stored
// flux is the value the per-cell evaluation produced and the six neighbour
// terms are added in the per-cell loop nest's order — x−, x+, y−, y+, z−,
// z+, then − centre — so every output bit is that loop nest's (DESIGN §2).
type Stencil struct {
	shift int
	clamp Axis
	ring  []float64
}

// NewStencil sizes the flux ring for fields of u's shape. shift is the
// flux partner offset (1 or 2), clamp the rank-local axis.
func NewStencil(u *Field, shift int, clamp Axis) *Stencil {
	if u.NC != 5 || u.G < 1 {
		panic(fmt.Sprintf("npb: stencil needs 5 components and a ghost layer, have nc=%d g=%d", u.NC, u.G))
	}
	if shift != 1 && shift != 2 {
		panic(fmt.Sprintf("npb: stencil flux shift %d not 1 or 2", shift))
	}
	return &Stencil{shift: shift, clamp: clamp, ring: make([]float64, 3*(u.Nx+2)*(u.Ny+2)*5)}
}

// Scratch returns the flux ring. Apply fills each plane of it before reading
// the plane, so a Stencil carries nothing from one call — or one world — to
// the next; the recycled-state tests overwrite it with NaN to hold Apply to
// that.
func (s *Stencil) Scratch() []float64 { return s.ring }

// Apply stores the stencil of u and the forcing frc into out's interior.
// The three fields share their interior shape; u is the one NewStencil saw.
//
//kcvet:hotpath COPY_FACES and SSOR_ITER run it every solver iteration inside timed windows
func (s *Stencil) Apply(out, frc, u *Field, dt float64) {
	nx, ny, nz := u.Nx, u.Ny, u.Nz
	n := nx * 5
	row := n + 10
	plane := row * (ny + 2)
	if len(s.ring) != 3*plane || out.Nx != nx || out.Ny != ny || out.Nz != nz ||
		frc.Nx != nx || frc.Ny != ny || frc.Nz != nz {
		panic("npb: stencil applied to fields of another shape")
	}
	// below, here and above hold the flux of planes k−1, k and k+1.
	below, here, above := s.ring[:plane], s.ring[plane:2*plane], s.ring[2*plane:]
	if s.clamp != AxisZ {
		s.fill(below, u, -1)
	}
	s.fill(here, u, 0)
	for k := 0; k < nz; k++ {
		zmPlane, zpPlane := below, above
		if s.clamp == AxisZ && k == 0 {
			zmPlane = here
		}
		if s.clamp == AxisZ && k == nz-1 {
			zpPlane = here
		} else {
			s.fill(above, u, k+1)
		}
		for j := 0; j < ny; j++ {
			at := (j+1)*row + 5
			ctr := here[at : at+n]
			xm := here[at-5 : at-5+n]
			xp := here[at+5 : at+5+n]
			ym := here[at-row:][:n]
			yp := here[at+row : at+row+n]
			zm := zmPlane[at : at+n]
			zp := zpPlane[at : at+n]
			ub := u.Idx(0, j, k)
			uc := u.Data[ub : ub+n]
			fb := frc.Idx(0, j, k)
			f := frc.Data[fb : fb+n]
			ob := out.Idx(0, j, k)
			o := out.Data[ob : ob+n]
			for i := range o {
				center := 6 * ctr[i]
				lap := xm[i] + xp[i] + ym[i] + yp[i] + zm[i] + zp[i] - center
				o[i] = dt * (f[i] - uc[i]*0.05 + lap)
			}
		}
		below, here, above = here, above, below
	}
}

// fill evaluates the flux of u's plane k into one padded ring plane: rows
// j = −1 … Ny, and in each the cells i = −1 … Nx. Along a clamped x the
// two pad cells repeat the row's end cells; otherwise they are u's ghosts.
func (s *Stencil) fill(dst []float64, u *Field, k int) {
	n := u.Nx * 5
	row := n + 10
	for j := -1; j <= u.Ny; j++ {
		d := dst[(j+1)*row : (j+2)*row]
		if s.clamp == AxisX {
			ub := u.Idx(0, j, k)
			flux(d[5:5+n], u.Data[ub:ub+n], s.shift)
			copy(d[:5], d[5:10])
			copy(d[5+n:], d[n:5+n])
		} else {
			ub := u.Idx(-1, j, k)
			flux(d, u.Data[ub:ub+row], s.shift)
		}
	}
}

// flux stores the nonlinear flux of every five-component cell of u into
// the matching cell of f.
func flux(f, u []float64, shift int) {
	f = f[:len(u)]
	if shift == 1 {
		for i := 0; i+5 <= len(u); i += 5 {
			d, v := (*[5]float64)(f[i:i+5]), (*[5]float64)(u[i:i+5])
			d[0] = v[0] * (1 + fluxEps*v[1])
			d[1] = v[1] * (1 + fluxEps*v[2])
			d[2] = v[2] * (1 + fluxEps*v[3])
			d[3] = v[3] * (1 + fluxEps*v[4])
			d[4] = v[4] * (1 + fluxEps*v[0])
		}
		return
	}
	for i := 0; i+5 <= len(u); i += 5 {
		d, v := (*[5]float64)(f[i:i+5]), (*[5]float64)(u[i:i+5])
		d[0] = v[0] * (1 + fluxEps*v[2])
		d[1] = v[1] * (1 + fluxEps*v[3])
		d[2] = v[2] * (1 + fluxEps*v[4])
		d[3] = v[3] * (1 + fluxEps*v[0])
		d[4] = v[4] * (1 + fluxEps*v[1])
	}
}
