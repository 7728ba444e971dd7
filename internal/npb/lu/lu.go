// Package lu is a Go reimplementation of the NAS LU application benchmark
// in the kernel decomposition the coupling paper uses: INITIALIZATION,
// ERHS, SSOR_INIT, SSOR_ITER, SSOR_LT, SSOR_UT, SSOR_RS, ERROR, PINTGR and
// FINAL, with the four SSOR kernels forming the main loop ring.
//
// The grid is partitioned into vertical pencils by halving repeatedly in
// the first two dimensions, alternately x then y (a power-of-two rank
// count, as the paper describes). Each SSOR iteration computes a residual
// from the current solution (SSOR_ITER, with ghost-face exchange), then
// applies the lower- and upper-triangular sweeps (SSOR_LT / SSOR_UT) in
// diagonal-pipelined order: every z-plane waits for its west/south (resp.
// east/north) neighbor's boundary values — a relatively large number of
// small communications — and finally SSOR_RS updates the solution and
// computes the iteration's residual norms.
//
// The paper calls LU very sensitive to small-message performance. Here that
// is a property of the modelled interconnect only (mpi.WithNetModel, paper
// -table ablation-net): with in-process ranks a class-W study is arithmetic
// — the sweeps and the residual stencil — and the message path is well
// under a tenth of its CPU time (DESIGN §2).
package lu

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/npb"
)

// Kernel names, matching the paper's LU decomposition (Section 4.3).
const (
	KInit     = "INITIALIZATION"
	KErhs     = "ERHS"
	KSsorInit = "SSOR_INIT"
	KSsorIter = "SSOR_ITER"
	KSsorLT   = "SSOR_LT"
	KSsorUT   = "SSOR_UT"
	KSsorRS   = "SSOR_RS"
	KError    = "ERROR"
	KPintgr   = "PINTGR"
	KFinal    = "FINAL"
)

// Benchmark describes LU: its class problems (paper Table 7, with the
// NPB 2.x loop trip counts) and its kernels grouped as the paper's control
// flow has them, the SSOR quartet as the loop ring.
var Benchmark = npb.Benchmark{
	Name: "LU",
	Classes: []npb.Problem{
		{Class: npb.ClassS, N1: 12, N2: 12, N3: 12, Trips: 50, Dt: 0.5},
		{Class: npb.ClassW, N1: 33, N2: 33, N3: 33, Trips: 300, Dt: 1.5e-3},
		{Class: npb.ClassA, N1: 64, N2: 64, N3: 64, Trips: 250, Dt: 2.0},
		{Class: npb.ClassB, N1: 102, N2: 102, N3: 102, Trips: 250, Dt: 2.0},
	},
	Pre:  []string{KInit, KErhs, KSsorInit},
	Loop: []string{KSsorIter, KSsorLT, KSsorUT, KSsorRS},
	Post: []string{KError, KPintgr, KFinal},
	Factory: func(prob npb.Problem, procs int) (*npb.Factory, error) {
		return Factory(Config{Problem: prob, Procs: procs})
	},
}

// Config selects an LU problem instance.
type Config struct {
	// Problem is the grid/class configuration (see Benchmark).
	Problem npb.Problem
	// Procs is the rank count; LU requires a power of two.
	Procs int
}

// Validate checks the LU-specific constraints.
func (cfg Config) Validate() error {
	_, err := cfg.tiling()
	return err
}

// tiling cuts the grid into pencils over the px×py process grid of
// grid.PencilDims in x and y, z rank-local, with a one-plane halo: a face
// travels toward lower x under tag 70 and toward higher x under 71, along
// y under 72 and 73.
func (cfg Config) tiling() (npb.Tiling, error) {
	px, py, err := grid.PencilDims(cfg.Procs)
	if err != nil {
		return npb.Tiling{}, fmt.Errorf("lu: %w", err)
	}
	p := cfg.Problem
	if p.N1 < 3 || p.N2 < 3 || p.N3 < 3 {
		return npb.Tiling{}, fmt.Errorf("lu: grid %s too small", p)
	}
	return npb.NewTiling("lu", p, [2]npb.Axis{npb.AxisX, npb.AxisY}, [2]int{px, py}, 1, npb.HaloTags{{{70}, {71}}, {{72}, {73}}})
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

// SSOR model constants: omega is the relaxation factor of the triangular
// sweeps, omega2 the solution-update weight, the l* factors the directional
// weights of the triangular couplings, and eps their solution dependence.
// Sweep stability needs omega·(la+lb+lc)·(1+O(eps)) < 1.
const (
	omega  = 0.9
	omega2 = 0.8
	la     = 0.30
	lb     = 0.25
	lc     = 0.20
	eps    = 0.02
)

// state is one rank's LU instance.
type state struct {
	*npb.Rank
	cfg Config

	nxl, nyl, nz int // the pencil: x and y cut, z whole

	u, rsd, frct *npb.Field
	stencil      *npb.Stencil

	// Global coordinates of the cells this rank owns, and exact's sine
	// and cosine factors over them in the two argument orders in use:
	// (x, y, z) for INITIALIZATION and ERROR, (y, z, x) for ERHS.
	gx, gy, gz         []float64
	exactXYZ, exactYZX *npb.FactorTable

	// Sweep boundary buffers: one column (nyl·5) and one row (nxl·5).
	colBuf, rowBuf []float64

	// Norms computed by SSOR_RS (residual), ERROR and FINAL.
	resNorms [5]float64
	errNorms [5]float64
	norms    [5]float64
	surface  float64
}

func newState(c *mpi.Comm, cfg Config) (*state, error) {
	t, err := cfg.tiling()
	if err != nil {
		return nil, err
	}
	st := &state{Rank: npb.NewRank(c, t), cfg: cfg}
	st.nxl, st.nyl, st.nz = st.Extent()
	st.u, st.rsd, st.frct = st.Field(1), st.Field(1), st.Field(0)
	// The flux of component c pairs it with c+1; z is the rank-local axis.
	st.stencil = npb.NewStencil(st.u, 1, npb.AxisZ)

	st.colBuf = make([]float64, st.nyl*5)
	st.rowBuf = make([]float64, st.nxl*5)

	st.gx, st.gy, st.gz = st.CoordsDivided(npb.AxisX), st.CoordsDivided(npb.AxisY), st.CoordsDivided(npb.AxisZ)
	st.exactXYZ = npb.NewFactorTable(st.gx, st.gy, st.gz, exactSin, exactCos)
	st.exactYZX = npb.NewFactorTable(st.gy, st.gz, st.gx, exactSin, exactCos)

	st.initialize()
	st.erhs()
	st.ssorInit()
	st.ssorIter()
	st.Snapshot(st.u, st.rsd)
	return st, nil
}

// Rebind implements npb.Rebinder (see npb.Rank). LU sends on the world
// communicator alone, so binding exchanges nothing. Set-up's SSOR_ITER and
// its face exchange are not repeated — their result is in the snapshots —
// which is why a world must not mix rebound and built ranks (npb.Factory).
// The sweep buffers and the stencil ring keep the last world's bytes: each
// is written before it is read.
//
//kcvet:hotpath every world of a cold study after its first starts here
func (st *state) Rebind(c *mpi.Comm) {
	st.Bind(c)
	st.Refresh()
	st.resNorms, st.errNorms, st.norms, st.surface = [5]float64{}, [5]float64{}, [5]float64{}, 0
}

// RunKernel dispatches one application-order execution of the named kernel.
func (st *state) RunKernel(name string) error {
	switch name {
	case KInit:
		st.initialize()
	case KErhs:
		st.erhs()
	case KSsorInit:
		st.ssorInit()
	case KSsorIter:
		st.ssorIter()
	case KSsorLT:
		st.ssorLT()
	case KSsorUT:
		st.ssorUT()
	case KSsorRS:
		st.ssorRS()
	case KError:
		st.errorNorms()
	case KPintgr:
		st.pintgr()
	case KFinal:
		st.norms = st.FinalNorms(st.u)
	default:
		return fmt.Errorf("lu: unknown kernel %q", name)
	}
	return nil
}

// Norms returns the verification norms computed by the last FINAL.
func (st *state) Norms() [5]float64 { return st.norms }

// The smooth reference field is, for component c at global coordinates
// x, y, z normalized to [0,1],
//
//	exact(c, x, y, z) = 1 + 0.3·exactSin(c, x, y)·exactCos(c, z) + 0.1·(c+1)·x·z
//
// The trigonometric factors separate, so newState tabulates them
// (npb.FactorTable) and the kernels assemble the field with exactFrom.

func exactSin(c int, x, y float64) float64 {
	fc := float64(c + 1)
	return math.Sin(math.Pi * (0.8*x + 0.5*fc*y))
}

func exactCos(c int, z float64) float64 {
	fc := float64(c + 1)
	return math.Cos(math.Pi * (0.6*z + 0.2*fc))
}

func exactFrom(c int, sin, cos, x, z float64) float64 {
	fc := float64(c + 1)
	return 1.0 + 0.3*sin*cos +
		0.1*fc*x*z
}

// initialize fills the solution with the smooth reference field.
func (st *state) initialize() {
	for k, gz := range st.gz {
		cos := st.exactXYZ.One(k)
		for j := range st.gy {
			base := st.u.Idx(0, j, k)
			for i, gx := range st.gx {
				sin := st.exactXYZ.Two(i, j)
				for c := 0; c < 5; c++ {
					st.u.Data[base+i*5+c] = exactFrom(c, sin[c], cos[c], gx, gz)
				}
			}
		}
	}
}

// erhs computes the static forcing field.
func (st *state) erhs() {
	for k := range st.gz {
		for j, gy := range st.gy {
			sin := st.exactYZX.Two(j, k)
			base := st.frct.Idx(0, j, k)
			for i, gx := range st.gx {
				cos := st.exactYZX.One(i)
				for c := 0; c < 5; c++ {
					cf := (c + 1) % 5 // the forcing is built from another component
					st.frct.Data[base+i*5+c] = 0.2 * exactFrom(cf, sin[cf], cos[cf], gy, gx)
				}
			}
		}
	}
}

// ssorInit clears the residual field including every ghost layer: the
// sweeps read ghost planes at physical boundaries and at k = -1 / k = nz,
// which must stay zero.
func (st *state) ssorInit() {
	st.rsd.Zero()
}
