// Package sp is a Go reimplementation of the NAS SP (Scalar Pentadiagonal)
// application benchmark in the kernel decomposition the coupling paper
// uses: INITIALIZATION, COPY_FACES, TXINVR, X_SOLVE, Y_SOLVE, Z_SOLVE, ADD
// and FINAL, with kernels 2–7 forming the main loop ring.
//
// Each iteration computes a right-hand side from the current solution
// (COPY_FACES, which first exchanges two-deep ghost faces because the
// pentadiagonal stencil reaches ±2), applies a block-diagonal
// transformation to it (TXINVR), solves scalar pentadiagonal systems along
// x, y and z in turn — five independent scalar systems per line, one per
// solution component — and accumulates the update (ADD).
//
// The domain decomposition matches BT's: a √P×√P process grid over y and z
// with x rank-local; the distributed pentadiagonal elimination forwards the
// last two normalized rows (6 floats per component) between neighbors.
package sp

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/npb"
)

// Kernel names, matching the paper's SP decomposition (Section 4.2).
const (
	KInit      = "INITIALIZATION"
	KCopyFaces = "COPY_FACES"
	KTxinvr    = "TXINVR"
	KXSolve    = "X_SOLVE"
	KYSolve    = "Y_SOLVE"
	KZSolve    = "Z_SOLVE"
	KAdd       = "ADD"
	KFinal     = "FINAL"
)

// Benchmark describes SP: its class problems (paper Table 5, with the
// NPB 2.x loop trip counts, 400 from class W on) and its kernels grouped
// as the paper's control flow has them.
var Benchmark = npb.Benchmark{
	Name: "SP",
	Classes: []npb.Problem{
		{Class: npb.ClassS, N1: 12, N2: 12, N3: 12, Trips: 100, Dt: 0.015},
		{Class: npb.ClassW, N1: 36, N2: 36, N3: 36, Trips: 400, Dt: 0.0015},
		{Class: npb.ClassA, N1: 64, N2: 64, N3: 64, Trips: 400, Dt: 0.0015},
		{Class: npb.ClassB, N1: 102, N2: 102, N3: 102, Trips: 400, Dt: 0.001},
	},
	Pre:  []string{KInit},
	Loop: []string{KCopyFaces, KTxinvr, KXSolve, KYSolve, KZSolve, KAdd},
	Post: []string{KFinal},
	Factory: func(prob npb.Problem, procs int) (*npb.Factory, error) {
		return Factory(Config{Problem: prob, Procs: procs})
	},
}

// Config selects an SP problem instance.
type Config struct {
	// Problem is the grid/class configuration (see Benchmark).
	Problem npb.Problem
	// Procs is the rank count; SP requires a perfect square.
	Procs int
}

// Validate checks the SP-specific constraints.
func (cfg Config) Validate() error {
	_, err := cfg.tiling()
	return err
}

// tiling cuts the grid as BT's is cut — a √P×√P process grid in y and z, x
// rank-local — with a two-plane halo, because the line solves reach ±2: a
// face's nearest plane travels along y under tag 50 and the next under 51,
// along z under 52 and 53, in both directions.
func (cfg Config) tiling() (npb.Tiling, error) {
	s, err := grid.SquareSide(cfg.Procs)
	if err != nil {
		return npb.Tiling{}, fmt.Errorf("sp: %w", err)
	}
	p := cfg.Problem
	if p.N1 < 5 || p.N2 < 5 || p.N3 < 5 {
		return npb.Tiling{}, fmt.Errorf("sp: grid %s too small for the pentadiagonal stencil", p)
	}
	return npb.NewTiling("sp", p, [2]npb.Axis{npb.AxisY, npb.AxisZ}, [2]int{s, s}, 2,
		npb.HaloTags{{{50, 51}, {50, 51}}, {{52, 53}, {52, 53}}})
}

// Factory returns the factory of the configuration's worlds. Its worlds
// after the first rebind the rank state of the ones before (see Rebind).
func Factory(cfg Config) (*npb.Factory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return npb.NewFactory(func(c *mpi.Comm) (npb.KernelSet, error) {
		return newState(c, cfg)
	}), nil
}

// Solver model constants: r1/r2 weight the ±1/±2 off-diagonals, eps scales
// the solution dependence of the coefficients (diagonal dominance needs
// 2(r1+r2) + O(eps) < 1 + 2r1 + 2r2) and epsT the TXINVR transform.
const (
	r1   = 0.30
	r2   = 0.10
	eps  = 0.02
	epsT = 0.05
)

// txWeights is the fixed row profile of the rank-one TXINVR transform
// T(u) = I + epsT·u⊗txWeights.
var txWeights = [5]float64{0.5, -0.35, 0.4, -0.25, 0.3}

// state is one rank's SP instance.
type state struct {
	*npb.Rank
	cfg Config

	nx, nyl, nzl int // the tile: x whole, y and z cut

	u, rhs, forcing *npb.Field
	stencil         *npb.Stencil

	// Global coordinates of the cells this rank owns, and exact's cosine
	// and sine factors over them in the two argument orders initialize
	// uses: (x, y, z) for the solution, (z, x, y) for the forcing.
	gx, gy, gz         []float64
	exactXYZ, exactZXY *npb.FactorTable

	commY, commZ *mpi.Comm // line communicators along y and z

	// Pentadiagonal work arrays: normalized (d1, d2, rh) per cell per
	// component, plus boundary buffers.
	d1, d2, rh []float64
	fwd        []float64 // 2 rows × 5 comps × 3 values = 30 per line
	bwd        []float64 // 2 rows × 5 comps = 10 per line

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
	st.u, st.rhs, st.forcing = st.Field(2), st.Field(0), st.Field(0)
	// The flux of component c pairs it with c+2; x is the rank-local axis.
	st.stencil = npb.NewStencil(st.u, 2, npb.AxisX)

	cells := st.nx * st.nyl * st.nzl
	st.d1 = make([]float64, cells*5)
	st.d2 = make([]float64, cells*5)
	st.rh = make([]float64, cells*5)
	maxLines := max(st.nx*st.nzl, st.nx*st.nyl, st.nyl*st.nzl)
	st.fwd = make([]float64, maxLines*30)
	st.bwd = make([]float64, maxLines*10)

	st.gx, st.gy, st.gz = st.Coords(npb.AxisX), st.Coords(npb.AxisY), st.Coords(npb.AxisZ)
	st.exactXYZ = npb.NewFactorTable(st.gx, st.gy, st.gz, exactCos, exactSin)
	st.exactZXY = npb.NewFactorTable(st.gz, st.gx, st.gy, exactCos, exactSin)

	st.initialize()
	st.copyFaces()
	st.Snapshot(st.u, st.rhs)
	return st, nil
}

// lines forms the y and z solves' line communicators, collectively.
func (st *state) lines() { st.commY, st.commZ = st.Cart().Sub(0), st.Cart().Sub(1) }

// Rebind implements npb.Rebinder (see npb.Rank): set-up's face exchange is
// not repeated — its result is in the u snapshot — which is why a world must
// not mix rebound and built ranks (npb.Factory). d1, d2, rh, fwd, bwd and
// the stencil ring keep the last world's bytes: each is written before it
// is read.
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
	case KTxinvr:
		st.txinvr()
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
		return fmt.Errorf("sp: unknown kernel %q", name)
	}
	return nil
}

// Norms returns the verification norms computed by the last FINAL.
func (st *state) Norms() [5]float64 { return st.norms }

// The smooth reference field for initialization and forcing is, for
// component c at global coordinates x, y, z normalized to [0,1],
//
//	exact(c, x, y, z) = 1 + 0.25·exactCos(c, x, y)·exactSin(c, z) + 0.15·(c+1)·(x + y·z)
//
// The trigonometric factors separate, so newState tabulates them
// (npb.FactorTable) and initialize assembles the field with exactFrom.

func exactCos(c int, x, y float64) float64 {
	fc := float64(c + 1)
	return math.Cos(math.Pi * (x*fc + y))
}

func exactSin(c int, z float64) float64 {
	fc := float64(c + 1)
	return math.Sin(math.Pi * (z + 0.4*fc))
}

func exactFrom(c int, cos, sin, x, y, z float64) float64 {
	fc := float64(c + 1)
	return 1.0 + 0.25*cos*sin +
		0.15*fc*(x+y*z)
}

func (st *state) initialize() {
	for k, gz := range st.gz {
		uSin := st.exactXYZ.One(k)
		for j, gy := range st.gy {
			fSin := st.exactZXY.One(j)
			base := st.u.Idx(0, j, k)
			fbase := st.forcing.Idx(0, j, k)
			for i, gx := range st.gx {
				uCos := st.exactXYZ.Two(i, j)
				fCos := st.exactZXY.Two(k, i)
				for c := 0; c < 5; c++ {
					cf := (c + 3) % 5 // the forcing is built from another component
					st.u.Data[base+i*5+c] = exactFrom(c, uCos[c], uSin[c], gx, gy, gz)
					st.forcing.Data[fbase+i*5+c] = 0.2 * exactFrom(cf, fCos[cf], fSin[cf], gz, gx, gy)
				}
			}
		}
	}
}

// copyFaces exchanges two-deep ghost faces with the four neighbors, fills
// physical-boundary ghosts by zero-gradient extrapolation, and evaluates
// the stencil right-hand side.
func (st *state) copyFaces() {
	st.Exchange(st.u)
	st.computeRHS()
}

// computeRHS evaluates rhs = dt·(forcing - 0.05·u + (δ²x + δ²y + δ²z)flux(u))
// over the tile; the stencil reaches ±1, the second ghost layer is the line
// solves'.
func (st *state) computeRHS() {
	st.stencil.Apply(st.rhs, st.forcing, st.u, st.cfg.Problem.Dt)
}

// txinvr applies the block-diagonal transform rhs ← (I + εT·u⊗w)·rhs at
// every cell — phase two of the right-hand-side computation.
func (st *state) txinvr() {
	u, rhs := st.u, st.rhs
	for k := 0; k < st.nzl; k++ {
		for j := 0; j < st.nyl; j++ {
			ub := u.Idx(0, j, k)
			rb := rhs.Idx(0, j, k)
			for i := 0; i < st.nx; i++ {
				uc := u.Data[ub+i*5 : ub+i*5+5]
				rc := rhs.Data[rb+i*5 : rb+i*5+5]
				// dot = w·r, then r += epsT·u·dot.
				dot := 0.0
				for c := 0; c < 5; c++ {
					dot += txWeights[c] * rc[c]
				}
				for c := 0; c < 5; c++ {
					rc[c] += epsT * uc[c] * dot
				}
			}
		}
	}
}

// add accumulates the solved update into the solution.
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
