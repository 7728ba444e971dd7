package npb

import "fmt"

// Axis names a grid dimension.
type Axis int

// The grid's axes: x fastest in a Field's storage, z slowest.
const (
	AxisX Axis = iota
	AxisY
	AxisZ
)

// Field is a 3-D grid of NC-component cells with a ghost layer of width G
// on every side, stored in one flat slice with the component index fastest:
//
//	data[((k+G)*ys + (j+G))*xs*NC + (i+G)*NC + c]
//
// where xs and ys are the padded x and y extents. Kernels are expected to
// hoist Idx arithmetic out of inner loops; the strides are exported via
// StrideJ/StrideK for that purpose.
type Field struct {
	NC         int
	Nx, Ny, Nz int
	G          int
	Data       []float64

	xs, ys int
}

// NewField allocates a zeroed field of nx×ny×nz interior cells with nc
// components and ghost width g.
func NewField(nc, nx, ny, nz, g int) *Field {
	if nc < 1 || nx < 1 || ny < 1 || nz < 1 || g < 0 {
		panic(fmt.Sprintf("npb: invalid field shape nc=%d %dx%dx%d g=%d", nc, nx, ny, nz, g))
	}
	xs := nx + 2*g
	ys := ny + 2*g
	zs := nz + 2*g
	return &Field{
		NC: nc, Nx: nx, Ny: ny, Nz: nz, G: g,
		Data: make([]float64, xs*ys*zs*nc),
		xs:   xs, ys: ys,
	}
}

// Idx returns the flat offset of component 0 at interior coordinates
// (i, j, k); i ∈ [-G, Nx+G) etc., so ghost cells are addressed with
// negative or past-the-end indices.
func (f *Field) Idx(i, j, k int) int {
	return (((k+f.G)*f.ys+(j+f.G))*f.xs + (i + f.G)) * f.NC
}

// StrideJ returns the flat distance between (i,j,k) and (i,j+1,k).
func (f *Field) StrideJ() int { return f.xs * f.NC }

// StrideK returns the flat distance between (i,j,k) and (i,j,k+1).
func (f *Field) StrideK() int { return f.xs * f.ys * f.NC }

// StrideI returns the flat distance between (i,j,k) and (i+1,j,k).
func (f *Field) StrideI() int { return f.NC }

// At returns component c at (i, j, k).
func (f *Field) At(c, i, j, k int) float64 { return f.Data[f.Idx(i, j, k)+c] }

// Set stores component c at (i, j, k).
func (f *Field) Set(c, i, j, k int, v float64) { f.Data[f.Idx(i, j, k)+c] = v }

// Add accumulates into component c at (i, j, k).
func (f *Field) Add(c, i, j, k int, v float64) { f.Data[f.Idx(i, j, k)+c] += v }

// Zero clears the entire field including ghosts.
func (f *Field) Zero() {
	for i := range f.Data {
		f.Data[i] = 0
	}
}

// CopyFrom copies another field's storage; shapes must match.
func (f *Field) CopyFrom(src *Field) {
	if len(f.Data) != len(src.Data) || f.NC != src.NC || f.Nx != src.Nx || f.Ny != src.Ny || f.Nz != src.Nz || f.G != src.G {
		panic("npb: CopyFrom shape mismatch")
	}
	copy(f.Data, src.Data)
}

// Clone returns a deep copy of the field.
func (f *Field) Clone() *Field {
	g := NewField(f.NC, f.Nx, f.Ny, f.Nz, f.G)
	copy(g.Data, f.Data)
	return g
}

// plane is the walk over the interior cells of one plane of a field, normal
// to an axis: rows of runs, in the order a face travels in a message — the
// higher of the two other axes outer, the lower inner. A run is one cell's
// NC values, or a whole x-row where the plane's rows run along x.
type plane struct {
	base          int // flat offset of the plane's first cell
	rows, rowStep int
	runs, runStep int // runs per row, and the flat distance between them
	run           int // values per run
}

func (f *Field) plane(a Axis, at int) plane {
	switch a {
	case AxisX:
		return plane{base: f.Idx(at, 0, 0), rows: f.Nz, rowStep: f.StrideK(), runs: f.Ny, runStep: f.StrideJ(), run: f.NC}
	case AxisY:
		return plane{base: f.Idx(0, at, 0), rows: f.Nz, rowStep: f.StrideK(), runs: 1, run: f.Nx * f.NC}
	default:
		return plane{base: f.Idx(0, 0, at), rows: f.Ny, rowStep: f.StrideJ(), runs: 1, run: f.Nx * f.NC}
	}
}

// movePlane copies the plane at index at normal to a into buf when pack is
// set, and buf into the plane otherwise, in the plane's walk order. It
// returns the number of values moved; buf must hold that many.
func (f *Field) movePlane(a Axis, at int, buf []float64, pack bool) int {
	p := f.plane(a, at)
	n := 0
	for r := 0; r < p.rows; r++ {
		for q := 0; q < p.runs; q++ {
			cell := f.Data[p.base+r*p.rowStep+q*p.runStep:][:p.run]
			if pack {
				copy(buf[n:n+p.run], cell)
			} else {
				copy(cell, buf[n:n+p.run])
			}
			n += p.run
		}
	}
	return n
}

// CopyPlane copies the interior cells of plane src normal to a into plane
// dst: the zero-gradient ghost at a physical boundary.
func (f *Field) CopyPlane(a Axis, src, dst int) {
	p := f.plane(a, src)
	shift := f.plane(a, dst).base - p.base
	for r := 0; r < p.rows; r++ {
		for q := 0; q < p.runs; q++ {
			at := p.base + r*p.rowStep + q*p.runStep
			copy(f.Data[at+shift:at+shift+p.run], f.Data[at:at+p.run])
		}
	}
}
