package npb

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/mpi"
)

// HaloTags are a halo's message tags, [cut][toward][depth]: toward is 0 for
// the faces a rank sends its lower neighbour along the cut axis and 1 for
// those it sends its higher one; depth counts planes inward from the face.
type HaloTags [2][2][2]int

// Tiling is how BT, SP and LU cut their grid: two axes split over a
// dims[0]×dims[1] process grid (grid.Block1D along each), the third whole
// on every rank, and a ghost layer depth planes deep that Rank.Exchange
// keeps current across every cut face.
type Tiling struct {
	p     Problem
	axes  [2]Axis
	dims  [2]int
	depth int
	tags  HaloTags
}

// NewTiling cuts p along axes over dims ranks with a depth-plane halo sent
// under tags. It refuses a cut that leaves some rank fewer than depth
// planes along either axis — such a tile cannot fill its neighbour's halo —
// with an error that names bench.
func NewTiling(bench string, p Problem, axes [2]Axis, dims [2]int, depth int, tags HaloTags) (Tiling, error) {
	for d, a := range axes {
		if p.extents()[a]/dims[d] < depth {
			return Tiling{}, fmt.Errorf("%s: tiles of %s over %d×%d ranks thinner than the %d-deep halo", bench, p, dims[0], dims[1], depth)
		}
	}
	return Tiling{p: p, axes: axes, dims: dims, depth: depth, tags: tags}, nil
}

func (p Problem) extents() [3]int { return [3]int{p.N1, p.N2, p.N3} }

// Rank is what a BT, SP or LU rank keeps beside its solver: its tile, its
// place in a world (communicator, process grid, the neighbours across each
// cut face), the halo exchange, and the field snapshots Refresh restores.
// Set-up is a pure function of (configuration, rank), so a Rank built for
// one world serves the same rank of the next after Bind and Refresh
// (Rebinder); its face buffer is written before it is read.
type Rank struct {
	tiling Tiling
	owned  [3]grid.Range // global cells along x, y, z
	comm   *mpi.Comm
	cart   *mpi.Cart
	lo, hi [2]int // neighbours along each cut, -1 at a physical boundary
	face   []float64
	fields []*Field
	snaps  [][]float64
}

// NewRank returns c's rank of t, bound to c.
func NewRank(c *mpi.Comm, t Tiling) *Rank {
	r := &Rank{tiling: t}
	r.Bind(c)
	co := r.cart.Coords()
	for a, n := range t.p.extents() {
		r.owned[a] = grid.Range{Hi: n}
	}
	for d, a := range t.axes {
		r.owned[a] = grid.Block1D(t.p.extents()[a], t.dims[d], co[d])
	}
	nx, ny, nz := r.Extent()
	r.face = make([]float64, 5*nx*ny*nz/min(r.owned[t.axes[0]].N(), r.owned[t.axes[1]].N()))
	return r
}

// Bind attaches the rank to c, its rank of a new world: the process grid
// (dimension d along cut d) and the neighbours. It sends nothing.
func (r *Rank) Bind(c *mpi.Comm) {
	r.comm = c
	r.cart = mpi.NewCart(c, r.tiling.dims[0], r.tiling.dims[1])
	r.lo[0], r.hi[0] = r.cart.Shift(0, 1)
	r.lo[1], r.hi[1] = r.cart.Shift(1, 1)
}

// Comm returns the communicator the rank is bound to.
func (r *Rank) Comm() *mpi.Comm { return r.comm }

// Cart returns the process grid over Comm.
func (r *Rank) Cart() *mpi.Cart { return r.cart }

// Neighbours returns the ranks below and above along cut d, -1 at a
// physical boundary.
func (r *Rank) Neighbours(d int) (lo, hi int) { return r.lo[d], r.hi[d] }

// Owned returns the global cells the rank owns along a.
func (r *Rank) Owned(a Axis) grid.Range { return r.owned[a] }

// Extent returns the tile's cell counts along x, y and z.
func (r *Rank) Extent() (nx, ny, nz int) {
	return r.owned[AxisX].N(), r.owned[AxisY].N(), r.owned[AxisZ].N()
}

// Field returns a new five-component field of the tile, ghost layer g deep.
func (r *Rank) Field(g int) *Field {
	nx, ny, nz := r.Extent()
	return NewField(5, nx, ny, nz, g)
}

// Coords returns the global coordinates, normalized to [0,1], of the cells
// owned along a, computed as BT and SP do: (lo+i)·(1/(total−1)).
func (r *Rank) Coords(a Axis) []float64 { return r.coords(a, false) }

// CoordsDivided is Coords computed as LU does: (lo+i)/(total−1). The two
// round differently for some cells; each fields.golden pins its own.
func (r *Rank) CoordsDivided(a Axis) []float64 { return r.coords(a, true) }

func (r *Rank) coords(a Axis, divide bool) []float64 {
	span := float64(r.tiling.p.extents()[a] - 1)
	h := 1.0 / span
	g := make([]float64, r.owned[a].N())
	for i := range g {
		if x := float64(r.owned[a].Lo + i); divide {
			g[i] = x / span
		} else {
			g[i] = x * h
		}
	}
	return g
}

// Exchange refreshes u's ghost layer across the tile's cut faces, one cut
// after the other: it sends its edge planes, nearest the face first, to the
// higher neighbour and then to the lower one, and receives the lower
// neighbour's and then the higher's into its ghost planes. At a physical
// boundary it copies the edge plane outward instead (zero gradient). The
// ghosts along the uncut axis and the layer's edges and corners are left
// as they are. u is a Field of the tile at least the halo deep.
//
//kcvet:hotpath COPY_FACES and SSOR_ITER run it every solver iteration inside timed windows
func (r *Rank) Exchange(u *Field) {
	nx, ny, nz := r.Extent()
	depth := r.tiling.depth
	if u.NC != 5 || u.Nx != nx || u.Ny != ny || u.Nz != nz || u.G < depth {
		panic("npb: halo exchanged on a field of another shape")
	}
	for d, a := range r.tiling.axes {
		n, lo, hi, tags, face := r.owned[a].N(), r.lo[d], r.hi[d], &r.tiling.tags[d], r.face
		for k := 0; k < depth && hi >= 0; k++ {
			r.comm.Send(hi, tags[1][k], face[:u.movePlane(a, n-1-k, face, true)])
		}
		for k := 0; k < depth && lo >= 0; k++ {
			r.comm.Send(lo, tags[0][k], face[:u.movePlane(a, k, face, true)])
		}
		for k := 0; k < depth; k++ {
			if lo < 0 {
				u.CopyPlane(a, 0, -1-k)
				continue
			}
			r.comm.Recv(lo, tags[1][k], face)
			u.movePlane(a, -1-k, face, false)
		}
		for k := 0; k < depth; k++ {
			if hi < 0 {
				u.CopyPlane(a, n-1, n+k)
				continue
			}
			r.comm.Recv(hi, tags[0][k], face)
			u.movePlane(a, n+k, face, false)
		}
	}
}

// Scratch returns the face buffer, for the recycled-state tests to poison.
func (r *Rank) Scratch() []float64 { return r.face }

// Snapshot records the fields' values, ghosts included, for Refresh.
func (r *Rank) Snapshot(fields ...*Field) {
	r.fields, r.snaps = fields, make([][]float64, len(fields))
	for i, f := range fields {
		r.snaps[i] = append([]float64(nil), f.Data...)
	}
}

// Refresh restores the fields Snapshot recorded, bit for bit, so repeated
// measurement blocks see the numerical state set-up left.
func (r *Rank) Refresh() {
	for i, f := range r.fields {
		copy(f.Data, r.snaps[i])
	}
}

// RMS all-reduces the per-component sums of squares local over the world
// and returns each one's root mean over the whole grid: the tail of every
// norm BT, SP and LU compute.
func (r *Rank) RMS(local [5]float64) [5]float64 {
	var global [5]float64
	r.comm.Allreduce(mpi.OpSum, local[:], global[:])
	cells := float64(r.tiling.p.Cells())
	for c := range global {
		global[c] = math.Sqrt(global[c] / cells)
	}
	return global
}

// FinalNorms returns the RMS of each of u's five components: the FINAL
// kernel of BT, SP and LU.
func (r *Rank) FinalNorms(u *Field) [5]float64 {
	var local [5]float64
	n := u.Nx * 5
	for k := 0; k < u.Nz; k++ {
		for j := 0; j < u.Ny; j++ {
			row := u.Data[u.Idx(0, j, k):][:n]
			for i := 0; i < n; i += 5 {
				for c, v := range row[i : i+5] {
					local[c] += v * v
				}
			}
		}
	}
	return r.RMS(local)
}
