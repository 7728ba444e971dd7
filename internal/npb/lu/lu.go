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

// KernelNames returns LU's kernels grouped as the paper's control flow has
// them: the SSOR quartet is the loop ring.
func KernelNames() (pre, loop, post []string) {
	return []string{KInit, KErhs, KSsorInit},
		[]string{KSsorIter, KSsorLT, KSsorUT, KSsorRS},
		[]string{KError, KPintgr, KFinal}
}

// Config selects an LU problem instance.
type Config struct {
	// Problem is the grid/class configuration (see npb.LUProblem).
	Problem npb.Problem
	// Procs is the rank count; LU requires a power of two.
	Procs int
}

// Validate checks the LU-specific constraints.
func (cfg Config) Validate() error {
	if !grid.IsPowerOfTwo(cfg.Procs) {
		return fmt.Errorf("lu: %d processes is not a power of two", cfg.Procs)
	}
	if cfg.Problem.N1 < 3 || cfg.Problem.N2 < 3 || cfg.Problem.N3 < 3 {
		return fmt.Errorf("lu: grid %s too small", cfg.Problem)
	}
	return nil
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
	c    *mpi.Comm
	cart *mpi.Cart
	cfg  Config

	px, py       int
	cx, cy       int
	rx, ry       grid.Range
	nxl, nyl, nz int

	// Pencil neighbors, -1 at a physical boundary.
	loX, hiX, loY, hiY int

	u, rsd, frct *npb.Field
	stencil      *npb.Stencil
	u0, rsd0     []float64

	// Global coordinates of the cells this rank owns, and exact's sine
	// and cosine factors over them in the two argument orders in use:
	// (x, y, z) for INITIALIZATION and ERROR, (y, z, x) for ERHS.
	gx, gy, gz         []float64
	exactXYZ, exactYZX *npb.FactorTable

	// Sweep boundary buffers: one column (nyl·5) and one row (nxl·5).
	colBuf, rowBuf []float64
	faceX, faceY   []float64

	// Norms computed by SSOR_RS (residual), ERROR and FINAL.
	resNorms [5]float64
	errNorms [5]float64
	norms    [5]float64
	surface  float64
}

func newState(c *mpi.Comm, cfg Config) (*state, error) {
	px, py, err := grid.PencilDims(cfg.Procs)
	if err != nil {
		return nil, err
	}
	st := &state{cfg: cfg, px: px, py: py}
	st.bind(c)
	co := st.cart.Coords()
	st.cx, st.cy = co[0], co[1]
	p := cfg.Problem
	st.rx = grid.Block1D(p.N1, px, st.cx)
	st.ry = grid.Block1D(p.N2, py, st.cy)
	st.nxl = st.rx.N()
	st.nyl = st.ry.N()
	st.nz = p.N3
	if st.nxl < 1 || st.nyl < 1 {
		return nil, fmt.Errorf("lu: rank (%d,%d) owns an empty pencil of %s", st.cx, st.cy, p)
	}

	st.u = npb.NewField(5, st.nxl, st.nyl, st.nz, 1)
	st.rsd = npb.NewField(5, st.nxl, st.nyl, st.nz, 1)
	st.frct = npb.NewField(5, st.nxl, st.nyl, st.nz, 0)
	// The flux of component c pairs it with c+1; z is the rank-local axis.
	st.stencil = npb.NewStencil(st.u, 1, npb.AxisZ)

	st.colBuf = make([]float64, st.nyl*5)
	st.rowBuf = make([]float64, st.nxl*5)
	st.faceX = make([]float64, st.nyl*st.nz*5)
	st.faceY = make([]float64, st.nxl*st.nz*5)

	st.gx = gridCoords(st.rx.Lo, st.nxl, p.N1)
	st.gy = gridCoords(st.ry.Lo, st.nyl, p.N2)
	st.gz = gridCoords(0, st.nz, p.N3)
	st.exactXYZ = npb.NewFactorTable(st.gx, st.gy, st.gz, exactSin, exactCos)
	st.exactYZX = npb.NewFactorTable(st.gy, st.gz, st.gx, exactSin, exactCos)

	st.initialize()
	st.erhs()
	st.ssorInit()
	st.ssorIter()
	st.u0 = append([]float64(nil), st.u.Data...)
	st.rsd0 = append([]float64(nil), st.rsd.Data...)
	return st, nil
}

// bind attaches the state to its rank of a world: the communicator, the
// pencil grid over it and the pencil's neighbours. LU sends on the world
// communicator alone, so binding exchanges nothing.
func (st *state) bind(c *mpi.Comm) {
	st.c = c
	st.cart = mpi.NewCart(c, st.px, st.py)
	st.loX, st.hiX = st.cart.Shift(0, 1)
	st.loY, st.hiY = st.cart.Shift(1, 1)
}

// Rebind implements npb.Rebinder: the state a finished world left serves
// the same rank of the next. newState's result is a pure function of
// (configuration, rank) — the forcing is static, the factor tables and
// coordinates never change, Refresh restores u and rsd bit for bit, ghost
// layers included — so what remains is the world itself. Set-up's SSOR_ITER
// and its face exchange are not repeated (their result is in the
// snapshots), which is why a world must not mix rebound and built ranks
// (npb.Factory). The sweep and face buffers and the stencil ring keep the
// last world's bytes: each is written before it is read.
//
//kcvet:hotpath every world of a cold study after its first starts here
func (st *state) Rebind(c *mpi.Comm) {
	st.bind(c)
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
		st.final()
	default:
		return fmt.Errorf("lu: unknown kernel %q", name)
	}
	return nil
}

// Refresh restores the post-setup numerical state.
func (st *state) Refresh() {
	copy(st.u.Data, st.u0)
	copy(st.rsd.Data, st.rsd0)
}

// Norms returns the verification norms computed by the last FINAL.
func (st *state) Norms() [5]float64 { return st.norms }

// ResNorms returns the residual norms computed by the last SSOR_RS.
func (st *state) ResNorms() [5]float64 { return st.resNorms }

// ErrNorms returns the error norms computed by the last ERROR.
func (st *state) ErrNorms() [5]float64 { return st.errNorms }

// Surface returns the surface integral computed by the last PINTGR.
func (st *state) Surface() float64 { return st.surface }

// gridCoords returns the global coordinates, normalized to [0,1], of the n
// points starting at lo of a dimension with total points.
func gridCoords(lo, n, total int) []float64 {
	g := make([]float64, n)
	for i := range g {
		g[i] = float64(lo+i) / float64(total-1)
	}
	return g
}

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
