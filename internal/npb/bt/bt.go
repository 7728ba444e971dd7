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

// Benchmark describes BT: its class problems (paper Table 1, with the
// paper's loop trip counts, 60 for class S and 200 for W and A) and its
// kernels grouped as the paper's control flow has them.
var Benchmark = npb.Benchmark{
	Name: "BT",
	Classes: []npb.Problem{
		{Class: npb.ClassS, N1: 12, N2: 12, N3: 12, Trips: 60, Dt: 0.010},
		{Class: npb.ClassW, N1: 32, N2: 32, N3: 32, Trips: 200, Dt: 0.0008},
		{Class: npb.ClassA, N1: 64, N2: 64, N3: 64, Trips: 200, Dt: 0.0008},
		{Class: npb.ClassB, N1: 102, N2: 102, N3: 102, Trips: 200, Dt: 0.0003},
	},
	Pre:  []string{KInit},
	Loop: []string{KCopyFaces, KXSolve, KYSolve, KZSolve, KAdd},
	Post: []string{KFinal},
	Factory: func(prob npb.Problem, procs int) (*npb.Factory, error) {
		return Factory(Config{Problem: prob, Procs: procs})
	},
}

// Config selects a BT problem instance.
type Config struct {
	// Problem is the grid/class configuration (see Benchmark).
	Problem npb.Problem
	// Procs is the rank count; BT requires a perfect square.
	Procs int
}

// Validate checks the BT-specific constraints.
func (cfg Config) Validate() error {
	_, err := cfg.tiling()
	return err
}

// tiling cuts the grid over a √P×√P process grid in y and z, x rank-local,
// with a one-plane halo: a face travels toward lower y under tag 50 and
// toward higher y under 51, along z under 52 and 53.
func (cfg Config) tiling() (npb.Tiling, error) {
	s, err := grid.SquareSide(cfg.Procs)
	if err != nil {
		return npb.Tiling{}, fmt.Errorf("bt: %w", err)
	}
	p := cfg.Problem
	if p.N1 < 3 || p.N2 < 3 || p.N3 < 3 {
		return npb.Tiling{}, fmt.Errorf("bt: grid %s too small", p)
	}
	return npb.NewTiling("bt", p, [2]npb.Axis{npb.AxisY, npb.AxisZ}, [2]int{s, s}, 1, npb.HaloTags{{{50}, {51}}, {{52}, {53}}})
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
	*npb.Rank
	cfg Config

	nx, nyl, nzl int // the tile: x whole, y and z cut

	u, rhs, forcing *npb.Field
	stencil         *npb.Stencil

	// Global coordinates of the cells this rank owns, and exact's sine
	// and cosine factors over them in the two argument orders initialize
	// uses: (x, y, z) for the solution, (y, z, x) for the forcing.
	gx, gy, gz         []float64
	exactXYZ, exactYZX *npb.FactorTable

	commY, commZ *mpi.Comm // line communicators along y and z

	// Distributed-solve work arrays, sized for the largest line family.
	chat []linalg.Mat5
	fwd  []float64
	bwd  []float64

	// Verification state filled by FINAL.
	norms [5]float64
}

func newState(c *mpi.Comm, cfg Config) (*state, error) {
	t, err := cfg.tiling()
	if err != nil {
		return nil, err
	}
	st := &state{Rank: npb.NewRank(c, t), cfg: cfg}
	st.lines()
	st.nx, st.nyl, st.nzl = st.Extent()
	st.u, st.rhs, st.forcing = st.Field(1), st.Field(0), st.Field(0)
	// The flux of component c pairs it with c+1; x is the rank-local axis.
	st.stencil = npb.NewStencil(st.u, 1, npb.AxisX)

	cells := st.nx * st.nyl * st.nzl
	st.chat = make([]linalg.Mat5, cells)
	maxLines := max(st.nx*st.nzl, st.nx*st.nyl, st.nyl*st.nzl)
	st.fwd = make([]float64, maxLines*30)
	st.bwd = make([]float64, maxLines*5)

	st.gx, st.gy, st.gz = st.Coords(npb.AxisX), st.Coords(npb.AxisY), st.Coords(npb.AxisZ)
	st.exactXYZ = npb.NewFactorTable(st.gx, st.gy, st.gz, exactSin, exactCos)
	st.exactYZX = npb.NewFactorTable(st.gy, st.gz, st.gx, exactSin, exactCos)

	// Full setup outside any timed region: initial solution, forcing,
	// ghost faces and a first right-hand side, then snapshots so Refresh
	// can restore numerical state cheaply.
	st.initialize()
	st.copyFaces()
	st.Snapshot(st.u, st.rhs)
	return st, nil
}

// lines forms the y and z solves' line communicators, collectively.
func (st *state) lines() { st.commY, st.commZ = st.Cart().Sub(0), st.Cart().Sub(1) }

// Rebind implements npb.Rebinder (see npb.Rank): set-up's face exchange is
// not repeated — its result is in the u snapshot — which is why a world must
// not mix rebound and built ranks (npb.Factory). chat, fwd, bwd and the
// stencil ring keep the last world's bytes: each is written before it is
// read.
//
//kcvet:hotpath every world of a cold study after its first starts here
func (st *state) Rebind(c *mpi.Comm) {
	st.Bind(c)
	st.lines()
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
		st.norms = st.FinalNorms(st.u)
	default:
		return fmt.Errorf("bt: unknown kernel %q", name)
	}
	return nil
}

// Norms returns the verification norms computed by the last FINAL.
func (st *state) Norms() [5]float64 { return st.norms }

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
	st.Exchange(st.u)
	st.computeRHS()
}

// computeRHS evaluates rhs = dt·(forcing - 0.05·u + (δ²x + δ²y + δ²z)flux(u))
// over the tile, reading the ghost layer Exchange just filled.
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
