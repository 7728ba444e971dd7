// Package bt is a Go reimplementation of the NAS BT (Block Tridiagonal)
// application benchmark in the kernel decomposition the coupling paper
// uses: INITIALIZATION, COPY_FACES, X_SOLVE, Y_SOLVE, Z_SOLVE, ADD and
// FINAL, with kernels 2–6 forming the main loop ring.
//
// Each iteration computes a right-hand side from the current solution via
// a second-difference flux stencil (COPY_FACES, which first exchanges ghost
// faces with the four neighbors), then solves implicit systems that are
// block tridiagonal with 5×5 blocks along the x, y and z dimensions in
// turn, and finally accumulates the update into the solution (ADD).
//
// The domain is decomposed over a √P×√P process grid in the y and z
// dimensions (x lines stay rank-local). X_SOLVE is communication-free;
// Y_SOLVE and Z_SOLVE run a distributed block-Thomas elimination that
// forwards normalized boundary blocks between neighboring ranks, replacing
// the original multi-partition scheme with a pipelined slab scheme that
// preserves the compute/communicate structure coupling measures (see
// DESIGN.md).
package bt

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/npb"
)

// Kernel names, matching the paper's BT decomposition (Section 4.1).
const (
	KInit      = "INITIALIZATION"
	KCopyFaces = "COPY_FACES"
	KXSolve    = "X_SOLVE"
	KYSolve    = "Y_SOLVE"
	KZSolve    = "Z_SOLVE"
	KAdd       = "ADD"
	KFinal     = "FINAL"
)

// KernelNames returns BT's kernels grouped as the paper's control flow has
// them: one-shot pre-kernels, the loop ring, and one-shot post-kernels.
func KernelNames() (pre, loop, post []string) {
	return []string{KInit},
		[]string{KCopyFaces, KXSolve, KYSolve, KZSolve, KAdd},
		[]string{KFinal}
}

// Config selects a BT problem instance.
type Config struct {
	// Problem is the grid/class configuration (see npb.BTProblem).
	Problem npb.Problem
	// Procs is the rank count; BT requires a perfect square.
	Procs int
}

// Validate checks the BT-specific constraints.
func (cfg Config) Validate() error {
	if _, err := grid.SquareSide(cfg.Procs); err != nil {
		return fmt.Errorf("bt: %w", err)
	}
	if cfg.Problem.N1 < 3 || cfg.Problem.N2 < 3 || cfg.Problem.N3 < 3 {
		return fmt.Errorf("bt: grid %s too small", cfg.Problem)
	}
	return nil
}

// Factory returns the factory of the configuration's worlds; pass it to
// the npb measurement runners. Its worlds after the first rebind the rank
// state of the ones before (see Rebind).
func Factory(cfg Config) (*npb.Factory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return npb.NewFactory(func(c *mpi.Comm) (npb.KernelSet, error) {
		return newState(c, cfg)
	}), nil
}

// Solver model constants: rr is the implicit weight (diagonal dominance
// requires rr < 1/4 per off-diagonal pair plus the Jacobian perturbation)
// and eps scales the solution-dependent 5×5 Jacobian blocks.
const (
	rr  = 0.35
	eps = 0.02
)

// jacWeights is the fixed row profile of the rank-one Jacobian
// perturbation J(u) = eps · u ⊗ jacWeights.
var jacWeights = [5]float64{0.9, -0.6, 0.75, -0.45, 0.55}

// state is one rank's BT instance.
type state struct {
	c    *mpi.Comm
	cart *mpi.Cart
	cfg  Config

	// Decomposition: x full, y and z split over an s×s grid.
	s            int
	cy, cz       int
	ry, rz       grid.Range
	nx, nyl, nzl int

	u, rhs, forcing *npb.Field
	stencil         *npb.Stencil
	u0, rhs0        []float64 // snapshots for Refresh

	// Global coordinates of the cells this rank owns, and exact's sine
	// and cosine factors over them in the two argument orders initialize
	// uses: (x, y, z) for the solution, (y, z, x) for the forcing.
	gx, gy, gz         []float64
	exactXYZ, exactYZX *npb.FactorTable

	commY, commZ *mpi.Comm // line communicators along y and z

	// Face-exchange neighbors (-1 at a physical boundary) and buffers
	// (COPY_FACES).
	loY, hiY, loZ, hiZ int
	faceY, faceZ       []float64

	// Distributed-solve work arrays, sized for the largest line family.
	chat []linalg.Mat5
	fwd  []float64
	bwd  []float64

	// Verification state filled by FINAL.
	norms [5]float64
}

func newState(c *mpi.Comm, cfg Config) (*state, error) {
	s, err := grid.SquareSide(cfg.Procs)
	if err != nil {
		return nil, err
	}
	st := &state{cfg: cfg, s: s}
	st.bind(c)
	co := st.cart.Coords()
	st.cy, st.cz = co[0], co[1]
	p := cfg.Problem
	st.nx = p.N1
	st.ry = grid.Block1D(p.N2, s, st.cy)
	st.rz = grid.Block1D(p.N3, s, st.cz)
	st.nyl = st.ry.N()
	st.nzl = st.rz.N()
	if st.nyl < 1 || st.nzl < 1 {
		return nil, fmt.Errorf("bt: rank (%d,%d) owns an empty tile of %s", st.cy, st.cz, p)
	}

	st.u = npb.NewField(5, st.nx, st.nyl, st.nzl, 1)
	st.rhs = npb.NewField(5, st.nx, st.nyl, st.nzl, 0)
	st.forcing = npb.NewField(5, st.nx, st.nyl, st.nzl, 0)
	// The flux of component c pairs it with c+1; x is the rank-local axis.
	st.stencil = npb.NewStencil(st.u, 1, npb.AxisX)

	st.faceY = make([]float64, st.nx*st.nzl*5)
	st.faceZ = make([]float64, st.nx*st.nyl*5)

	cells := st.nx * st.nyl * st.nzl
	st.chat = make([]linalg.Mat5, cells)
	maxLines := max(st.nx*st.nzl, st.nx*st.nyl, st.nyl*st.nzl)
	st.fwd = make([]float64, maxLines*30)
	st.bwd = make([]float64, maxLines*5)

	st.gx = gridCoords(0, st.nx, p.N1)
	st.gy = gridCoords(st.ry.Lo, st.nyl, p.N2)
	st.gz = gridCoords(st.rz.Lo, st.nzl, p.N3)
	st.exactXYZ = npb.NewFactorTable(st.gx, st.gy, st.gz, exactSin, exactCos)
	st.exactYZX = npb.NewFactorTable(st.gy, st.gz, st.gx, exactSin, exactCos)

	// Full setup outside any timed region: initial solution, forcing,
	// ghost faces and a first right-hand side, then snapshots so Refresh
	// can restore numerical state cheaply.
	st.initialize()
	st.copyFaces()
	st.u0 = append([]float64(nil), st.u.Data...)
	st.rhs0 = append([]float64(nil), st.rhs.Data...)
	return st, nil
}

// bind attaches the state to its rank of a world: the communicator, the
// process grid over it (dims: y, z), the line communicators of the
// distributed solves and the face-exchange neighbours. Forming the line
// communicators is collective, so every rank of the world binds.
func (st *state) bind(c *mpi.Comm) {
	st.c = c
	st.cart = mpi.NewCart(c, st.s, st.s)
	st.commY = st.cart.Sub(0)
	st.commZ = st.cart.Sub(1)
	st.loY, st.hiY = st.cart.Shift(0, 1)
	st.loZ, st.hiZ = st.cart.Shift(1, 1)
}

// Rebind implements npb.Rebinder: the state a finished world left serves
// the same rank of the next. newState's result is a pure function of
// (configuration, rank) — the forcing is static, the factor tables and
// coordinates never change, Refresh restores u and rhs bit for bit — so
// what remains is the world itself. The set-up face exchange is not
// repeated (its result is in the u0 snapshot), which is why a world must
// not mix rebound and built ranks (npb.Factory). chat, fwd, bwd, the face
// buffers and the stencil ring keep the last world's bytes: each is
// written before it is read.
//
//kcvet:hotpath every world of a cold study after its first starts here
func (st *state) Rebind(c *mpi.Comm) {
	st.bind(c)
	st.Refresh()
	st.norms = [5]float64{}
}

// RunKernel dispatches one application-order execution of the named kernel.
func (st *state) RunKernel(name string) error {
	switch name {
	case KInit:
		st.initialize()
	case KCopyFaces:
		st.copyFaces()
	case KXSolve:
		st.xSolve()
	case KYSolve:
		st.ySolve()
	case KZSolve:
		st.zSolve()
	case KAdd:
		st.add()
	case KFinal:
		st.final()
	default:
		return fmt.Errorf("bt: unknown kernel %q", name)
	}
	return nil
}

// Refresh restores the post-setup solution and right-hand side so repeated
// window measurement blocks see identical numerical state.
func (st *state) Refresh() {
	copy(st.u.Data, st.u0)
	copy(st.rhs.Data, st.rhs0)
}

// Norms returns the verification norms computed by the last FINAL.
func (st *state) Norms() [5]float64 { return st.norms }

// gridCoords returns the global coordinates, normalized to [0,1], of the n
// points starting at lo of a dimension with total points.
func gridCoords(lo, n, total int) []float64 {
	h := 1.0 / float64(total-1)
	g := make([]float64, n)
	for i := range g {
		g[i] = float64(lo+i) * h
	}
	return g
}

// The smooth reference field the initial condition and forcing are built
// from is, for component c at global coordinates x, y, z normalized to [0,1],
//
//	exact(c, x, y, z) = 1 + 0.3·exactSin(c, x, y)·exactCos(c, z) + 0.2·(c+1)·x·y·z
//
// The trigonometric factors separate, so newState tabulates them
// (npb.FactorTable) and initialize assembles the field with exactFrom.

func exactSin(c int, x, y float64) float64 {
	fc := float64(c + 1)
	return math.Sin(math.Pi * (x + 0.7*fc*y))
}

func exactCos(c int, z float64) float64 {
	fc := float64(c + 1)
	return math.Cos(math.Pi * (z + 0.3*fc))
}

func exactFrom(c int, sin, cos, x, y, z float64) float64 {
	fc := float64(c + 1)
	return 1.0 + 0.3*sin*cos +
		0.2*fc*x*y*z
}

// initialize fills the solution with the exact field and builds the static
// forcing term. No communication.
func (st *state) initialize() {
	for k, gz := range st.gz {
		uCos := st.exactXYZ.One(k)
		for j, gy := range st.gy {
			fSin := st.exactYZX.Two(j, k)
			base := st.u.Idx(0, j, k)
			fbase := st.forcing.Idx(0, j, k)
			for i, gx := range st.gx {
				uSin := st.exactXYZ.Two(i, j)
				fCos := st.exactYZX.One(i)
				for c := 0; c < 5; c++ {
					cf := (c + 2) % 5 // the forcing is built from another component
					st.u.Data[base+i*5+c] = exactFrom(c, uSin[c], uCos[c], gx, gy, gz)
					st.forcing.Data[fbase+i*5+c] = 0.2 * exactFrom(cf, fSin[cf], fCos[cf], gy, gz, gx)
				}
			}
		}
	}
}

// copyFaces exchanges the four ghost faces of u with the y and z neighbors
// (phase one of the right-hand-side computation in NPB terms), fills
// physical-boundary ghosts by zero-gradient extrapolation, and then
// evaluates rhs = forcing - dt·(δ²x + δ²y + δ²z)flux(u).
func (st *state) copyFaces() {
	st.exchangeFaces()
	st.computeRHS()
}

// exchangeFaces is the per-iteration halo exchange; face buffers are
// preallocated in newState so the steady state allocates nothing.
//
//kcvet:hotpath runs every solver iteration inside timed measurement windows
func (st *state) exchangeFaces() {
	const (
		tagYLo = 50 // toward lower y
		tagYHi = 51
		tagZLo = 52
		tagZHi = 53
	)
	u := st.u
	// Y direction.
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
	// Z direction.
	loZ, hiZ := st.loZ, st.hiZ
	if hiZ >= 0 {
		u.PackFaceK(st.nzl-1, st.faceZ)
		st.c.Send(hiZ, tagZHi, st.faceZ)
	}
	if loZ >= 0 {
		u.PackFaceK(0, st.faceZ)
		st.c.Send(loZ, tagZLo, st.faceZ)
	}
	if loZ >= 0 {
		st.c.Recv(loZ, tagZHi, st.faceZ)
		u.UnpackFaceK(-1, st.faceZ)
	} else {
		copyPlaneK(u, 0, -1)
	}
	if hiZ >= 0 {
		st.c.Recv(hiZ, tagZLo, st.faceZ)
		u.UnpackFaceK(st.nzl, st.faceZ)
	} else {
		copyPlaneK(u, st.nzl-1, st.nzl)
	}
}

// copyPlaneJ duplicates interior plane jSrc into plane jDst (zero-gradient
// physical boundary).
func copyPlaneJ(f *npb.Field, jSrc, jDst int) {
	for k := 0; k < f.Nz; k++ {
		src := f.Idx(0, jSrc, k)
		dst := f.Idx(0, jDst, k)
		copy(f.Data[dst:dst+f.Nx*f.NC], f.Data[src:src+f.Nx*f.NC])
	}
}

// copyPlaneK duplicates interior plane kSrc into plane kDst.
func copyPlaneK(f *npb.Field, kSrc, kDst int) {
	for j := 0; j < f.Ny; j++ {
		src := f.Idx(0, j, kSrc)
		dst := f.Idx(0, j, kDst)
		copy(f.Data[dst:dst+f.Nx*f.NC], f.Data[src:src+f.Nx*f.NC])
	}
}

// computeRHS evaluates rhs = dt·(forcing - 0.05·u + (δ²x + δ²y + δ²z)flux(u))
// over the tile, reading the ghost layer exchangeFaces just filled.
func (st *state) computeRHS() {
	st.stencil.Apply(st.rhs, st.forcing, st.u, st.cfg.Problem.Dt)
}

// add accumulates the solved update into the solution: u += rhs.
func (st *state) add() {
	u, rhs := st.u, st.rhs
	for k := 0; k < st.nzl; k++ {
		for j := 0; j < st.nyl; j++ {
			ub := u.Idx(0, j, k)
			rb := rhs.Idx(0, j, k)
			n := st.nx * 5
			uRow := u.Data[ub : ub+n]
			rRow := rhs.Data[rb : rb+n]
			for i := range uRow {
				uRow[i] += rRow[i]
			}
		}
	}
}

// final computes the global solution norms (one per component) with an
// allreduce — the verification stage.
func (st *state) final() {
	var local [5]float64
	u := st.u
	for k := 0; k < st.nzl; k++ {
		for j := 0; j < st.nyl; j++ {
			base := u.Idx(0, j, k)
			for i := 0; i < st.nx; i++ {
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
