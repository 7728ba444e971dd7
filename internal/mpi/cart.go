package mpi

import "fmt"

// Cart is a Cartesian process topology over a communicator, mirroring the
// MPI_Cart_* family. Rank 0 has coordinate (0,...,0); ranks are laid out in
// row-major order (last dimension varies fastest), matching MPI convention.
type Cart struct {
	comm   *Comm
	dims   []int
	coords []int
}

// NewCart builds a Cartesian view over comm with the given dimensions.
// The product of dims must equal comm.Size().
func NewCart(comm *Comm, dims ...int) *Cart {
	p := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("mpi: Cartesian dimension %d must be positive", d))
		}
		p *= d
	}
	if p != comm.Size() {
		panic(fmt.Sprintf("mpi: Cartesian dims %v require %d ranks, communicator has %d", dims, p, comm.Size()))
	}
	c := &Cart{comm: comm, dims: append([]int(nil), dims...)}
	c.coords = c.CoordsOf(comm.Rank())
	return c
}

// Coords returns a copy of the calling rank's coordinates.
func (c *Cart) Coords() []int { return append([]int(nil), c.coords...) }

// CoordsOf returns the coordinates of an arbitrary rank.
func (c *Cart) CoordsOf(rank int) []int {
	coords := make([]int, len(c.dims))
	for i := len(c.dims) - 1; i >= 0; i-- {
		coords[i] = rank % c.dims[i]
		rank /= c.dims[i]
	}
	return coords
}

// Shift returns the source and destination ranks for a displacement along
// one dimension, the equivalent of MPI_Cart_shift with non-periodic
// boundaries: src is the neighbor displacement steps "behind" the caller,
// dst the neighbor "ahead"; either is -1 at the boundary.
func (c *Cart) Shift(dim, disp int) (src, dst int) {
	if dim < 0 || dim >= len(c.dims) {
		panic(fmt.Sprintf("mpi: Shift dimension %d out of range", dim))
	}
	// Ranks are row-major, so one step along dim is the product of the
	// later dimensions.
	stride := 1
	for _, d := range c.dims[dim+1:] {
		stride *= d
	}
	src, dst = -1, -1
	if x := c.coords[dim] - disp; x >= 0 && x < c.dims[dim] {
		src = c.comm.Rank() - disp*stride
	}
	if x := c.coords[dim] + disp; x >= 0 && x < c.dims[dim] {
		dst = c.comm.Rank() + disp*stride
	}
	return src, dst
}

// Sub splits the communicator into one sub-communicator per line of the
// kept dimension: keep selects the dimension that remains, and all ranks
// sharing coordinates in every other dimension form one sub-communicator,
// ordered by their coordinate along keep. This mirrors MPI_Cart_sub for a
// single retained dimension and is what the pipelined line solves use.
func (c *Cart) Sub(keep int) *Comm {
	if keep < 0 || keep >= len(c.dims) {
		panic(fmt.Sprintf("mpi: Sub dimension %d out of range", keep))
	}
	color := 0
	for i, x := range c.coords {
		if i == keep {
			continue
		}
		color = color*c.dims[i] + x
	}
	return c.comm.Split(color, c.coords[keep])
}
