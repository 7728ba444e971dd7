package bt

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/npbtest"
	"repro/internal/timing"
)

func tinyConfig(n, procs int) Config {
	return Config{Problem: npb.TinyProblem(n, 3), Procs: procs}
}

// withState runs fn on each rank's fully constructed BT state.
func withState(t *testing.T, cfg Config, fn func(*state)) {
	t.Helper()
	err := mpi.Run(cfg.Procs, func(c *mpi.Comm) {
		st, err := newState(c, cfg)
		if err != nil {
			panic(err)
		}
		fn(st)
	}, mpi.WithRecvTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

func TestKernelNames(t *testing.T) {
	pre, loop, post := KernelNames()
	if len(pre) != 1 || pre[0] != KInit {
		t.Errorf("pre = %v", pre)
	}
	if len(loop) != 5 || loop[0] != KCopyFaces || loop[4] != KAdd {
		t.Errorf("loop = %v", loop)
	}
	if len(post) != 1 || post[0] != KFinal {
		t.Errorf("post = %v", post)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := tinyConfig(8, 4).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := tinyConfig(8, 3).Validate(); err == nil {
		t.Error("non-square proc count should fail")
	}
	if err := tinyConfig(2, 4).Validate(); err == nil {
		t.Error("too-small grid should fail")
	}
	if _, err := Factory(tinyConfig(8, 5)); err == nil {
		t.Error("Factory should validate")
	}
	// The tile rule: every rank owns at least one plane along y and z.
	if err := tinyConfig(3, 9).Validate(); err != nil {
		t.Errorf("one-plane tiles rejected: %v", err)
	}
	if err := tinyConfig(3, 16).Validate(); err == nil {
		t.Error("3 points over a 4×4 grid leave ranks no cells and should fail")
	}
}

// runNorms executes the full application and returns the verification
// norms from rank 0.
func runNorms(t *testing.T, n, procs, trips int) [5]float64 {
	t.Helper()
	cfg := Config{Problem: npb.TinyProblem(n, trips), Procs: procs}
	f, err := Factory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre, loop, post := KernelNames()
	var norms [5]float64
	err = npb.RunOnce(f, pre, loop, trips, post, procs, func(ks npb.KernelSet) {
		norms = ks.(*state).Norms()
	}, mpi.WithRecvTimeout(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return norms
}

func TestFullRunRankInvariance(t *testing.T) {
	// The distributed elimination performs the same floating-point
	// operations in the same order regardless of the decomposition, so
	// verification norms must agree across rank counts to the tolerance
	// of the final allreduce's differing summation trees.
	ref := runNorms(t, 12, 1, 3)
	for c, v := range ref {
		if v == 0 || math.IsNaN(v) {
			t.Fatalf("degenerate reference norm[%d] = %v", c, v)
		}
	}
	for _, procs := range []int{4, 9} {
		got := runNorms(t, 12, procs, 3)
		for c := range ref {
			rel := math.Abs(got[c]-ref[c]) / ref[c]
			if rel > 1e-9 {
				t.Errorf("procs=%d norm[%d] = %.15g, serial %.15g (rel %e)", procs, c, got[c], ref[c], rel)
			}
		}
	}
}

func TestSolutionEvolves(t *testing.T) {
	// The norms after 1 trip and after 5 trips must differ: the loop is
	// doing real work.
	n1 := runNorms(t, 10, 1, 1)
	n5 := runNorms(t, 10, 1, 5)
	same := true
	for c := range n1 {
		if math.Abs(n1[c]-n5[c]) > 1e-12 {
			same = false
		}
	}
	if same {
		t.Error("solution did not evolve over iterations")
	}
}

// mulMV stores a·v into dst.
func mulMV(dst *linalg.Vec5, a *linalg.Mat5, v *linalg.Vec5) {
	for i := 0; i < 5; i++ {
		dst[i] = 0
		for k := 0; k < 5; k++ {
			dst[i] += a[i*5+k] * v[k]
		}
	}
}

// residualCheck verifies that the post-solve rhs (the solution v) satisfies
// the block-tridiagonal system built from u along the given dimension, for
// a single-rank state.
func residualCheck(t *testing.T, st *state, n, nLines int, uBase func(int) int, uStride int, rBase func(int) int, rStride int, before []float64) {
	t.Helper()
	var a, b, c linalg.Mat5
	var av, bv, cv, sum linalg.Vec5
	uData := st.u.Data
	v := st.rhs.Data
	for l := 0; l < nLines; l++ {
		uOff := uBase(l)
		rOff := rBase(l)
		for tt := 0; tt < n; tt++ {
			cu := uOff + tt*uStride
			cr := rOff + tt*rStride
			buildBlocks(at5(uData, cu-uStride), at5(uData, cu), at5(uData, cu+uStride), &a, &b, &c)
			mulMV(&bv, &b, at5(v, cr))
			sum = bv
			if tt > 0 {
				mulMV(&av, &a, at5(v, cr-rStride))
				for e := range sum {
					sum[e] += av[e]
				}
			}
			if tt < n-1 {
				mulMV(&cv, &c, at5(v, cr+rStride))
				for e := range sum {
					sum[e] += cv[e]
				}
			}
			for e := range sum {
				want := before[cr+e]
				if math.Abs(sum[e]-want) > 1e-8*(1+math.Abs(want)) {
					t.Fatalf("line %d pos %d comp %d: operator·v = %v, rhs was %v", l, tt, e, sum[e], want)
				}
			}
		}
	}
}

func TestXSolveSolvesTheSystem(t *testing.T) {
	withState(t, tinyConfig(8, 1), func(st *state) {
		before := append([]float64(nil), st.rhs.Data...)
		st.xSolve()
		residualCheck(t, st, st.nx, st.nyl*st.nzl,
			func(l int) int { return st.u.Idx(0, l%st.nyl, l/st.nyl) }, st.u.StrideI(),
			func(l int) int { return st.rhs.Idx(0, l%st.nyl, l/st.nyl) }, st.rhs.StrideI(),
			before)
	})
}

func TestYSolveSolvesTheSystem(t *testing.T) {
	withState(t, tinyConfig(8, 1), func(st *state) {
		before := append([]float64(nil), st.rhs.Data...)
		st.ySolve()
		residualCheck(t, st, st.nyl, st.nx*st.nzl,
			func(l int) int { return st.u.Idx(l%st.nx, 0, l/st.nx) }, st.u.StrideJ(),
			func(l int) int { return st.rhs.Idx(l%st.nx, 0, l/st.nx) }, st.rhs.StrideJ(),
			before)
	})
}

func TestZSolveSolvesTheSystem(t *testing.T) {
	withState(t, tinyConfig(8, 1), func(st *state) {
		before := append([]float64(nil), st.rhs.Data...)
		st.zSolve()
		residualCheck(t, st, st.nzl, st.nx*st.nyl,
			func(l int) int { return st.u.Idx(l%st.nx, l/st.nx, 0) }, st.u.StrideK(),
			func(l int) int { return st.rhs.Idx(l%st.nx, l/st.nx, 0) }, st.rhs.StrideK(),
			before)
	})
}

func TestAddAccumulates(t *testing.T) {
	withState(t, tinyConfig(6, 1), func(st *state) {
		uBefore := append([]float64(nil), st.u.Data...)
		st.add()
		for k := 0; k < st.nzl; k++ {
			for j := 0; j < st.nyl; j++ {
				ub := st.u.Idx(0, j, k)
				rb := st.rhs.Idx(0, j, k)
				for i := 0; i < st.nx*5; i++ {
					want := uBefore[ub+i] + st.rhs.Data[rb+i]
					if st.u.Data[ub+i] != want {
						t.Fatalf("add mismatch at (%d,%d,+%d)", j, k, i)
					}
				}
			}
		}
	})
}

func TestRefreshRestoresState(t *testing.T) {
	withState(t, tinyConfig(6, 1), func(st *state) {
		u0 := append([]float64(nil), st.u.Data...)
		rhs0 := append([]float64(nil), st.rhs.Data...)
		// Perturb state the way a measurement window would.
		st.xSolve()
		st.add()
		st.Refresh()
		for i := range u0 {
			if st.u.Data[i] != u0[i] {
				t.Fatal("Refresh did not restore u")
			}
		}
		for i := range rhs0 {
			if st.rhs.Data[i] != rhs0[i] {
				t.Fatal("Refresh did not restore rhs")
			}
		}
	})
}

func TestInitializeDeterministic(t *testing.T) {
	var first []float64
	withState(t, tinyConfig(6, 1), func(st *state) {
		first = append([]float64(nil), st.u.Data...)
	})
	withState(t, tinyConfig(6, 1), func(st *state) {
		for i := range first {
			if st.u.Data[i] != first[i] {
				t.Fatal("initialization not deterministic")
			}
		}
	})
}

func TestRunKernelUnknown(t *testing.T) {
	withState(t, tinyConfig(6, 1), func(st *state) {
		if err := st.RunKernel("NOPE"); err == nil {
			t.Error("unknown kernel should error")
		}
	})
}

// exact is the reference field evaluated cell by cell, as initialize did
// before its sine and cosine factors were tabulated.
func exact(c int, x, y, z float64) float64 {
	fc := float64(c + 1)
	return 1.0 + 0.3*math.Sin(math.Pi*(x+0.7*fc*y))*math.Cos(math.Pi*(z+0.3*fc)) +
		0.2*fc*x*y*z
}

func TestGhostExchangeMatchesNeighborInterior(t *testing.T) {
	// On a 2x2 grid, after copyFaces each rank's low-y ghost plane must
	// equal its y-neighbor's high interior plane. We verify via the
	// initialization function: ghosts must hold exact() of the global
	// coordinate just outside the tile.
	cfg := tinyConfig(8, 4)
	withState(t, cfg, func(st *state) {
		p := cfg.Problem
		hx := 1.0 / float64(p.N1-1)
		hy := 1.0 / float64(p.N2-1)
		hz := 1.0 / float64(p.N3-1)
		if ry, rz := st.Owned(npb.AxisY), st.Owned(npb.AxisZ); ry.Lo > 0 { // has a real y-neighbor below
			j := -1
			gy := float64(ry.Lo+j) * hy
			for k := 0; k < st.nzl; k++ {
				gz := float64(rz.Lo+k) * hz
				for i := 0; i < st.nx; i++ {
					gx := float64(i) * hx
					for c := 0; c < 5; c++ {
						want := exact(c, gx, gy, gz)
						got := st.u.At(c, i, j, k)
						if math.Abs(got-want) > 1e-12 {
							t.Errorf("ghost (%d,%d,%d,%d) = %v, want %v", c, i, j, k, got, want)
							return
						}
					}
				}
			}
		}
	})
}

func TestMeasureWindowSmoke(t *testing.T) {
	cfg := tinyConfig(8, 4)
	f, err := Factory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := npb.MeasureWindowDetail(f, []string{KXSolve, KYSolve}, timing.Protocol{Blocks: 2, Passes: 2}, npb.MeasureOptions{
		Procs:     4,
		WorldOpts: []mpi.Option{mpi.WithRecvTimeout(60 * time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	secs := res.Seconds
	if secs <= 0 {
		t.Errorf("per-pass time %v should be positive", secs)
	}
}

func TestMeasureFullSmoke(t *testing.T) {
	cfg := tinyConfig(8, 1)
	f, err := Factory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre, loop, post := KernelNames()
	secs, _, err := npb.MeasureFull(f, pre, loop, 2, post, npb.MeasureOptions{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if secs <= 0 {
		t.Errorf("full-run time %v should be positive", secs)
	}
}

func TestUnevenTileDecomposition(t *testing.T) {
	// 10 points over 3 ranks per dimension: tiles of 4/3/3. The full run
	// must still agree with serial.
	ref := runNorms(t, 10, 1, 2)
	got := runNorms(t, 10, 9, 2)
	for c := range ref {
		rel := math.Abs(got[c]-ref[c]) / ref[c]
		if rel > 1e-9 {
			t.Errorf("norm[%d]: %g vs %g", c, got[c], ref[c])
		}
	}
}

func TestPoisonedSolutionPanics(t *testing.T) {
	// One NaN in u makes every block built from it NaN. A NaN pivot
	// compares false against any threshold, so a guard written as
	// "|piv| < tiny" waves it through and the run "verifies" with NaN
	// norms; the solver must stop instead.
	withState(t, tinyConfig(6, 1), func(st *state) {
		st.u.Data[st.u.Idx(3, 2, 1)+2] = math.NaN()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "bt: lost diagonal dominance") {
				t.Errorf("xSolve on a NaN solution: recovered %q, want the lost-dominance panic", msg)
			}
		}()
		st.xSolve()
	})
}

func TestSolversDoNotAllocate(t *testing.T) {
	// The line solves and the stencil run inside timed windows: per-call
	// garbage there is GC noise in the very numbers the study divides. On
	// four ranks that includes the face exchange and the solves' boundary
	// messages, whose payloads ride the world's pools.
	for _, procs := range []int{1, 4} {
		if procs > 1 && npbtest.RaceEnabled() {
			continue // sync.Pool drops Puts under -race, and message payloads ride pools
		}
		err := mpi.Run(procs, func(c *mpi.Comm) {
			st, err := newState(c, tinyConfig(8, procs))
			if err != nil {
				panic(err)
			}
			for _, k := range []struct {
				name   string
				kernel func()
			}{
				{KXSolve, st.xSolve}, {KYSolve, st.ySolve}, {KZSolve, st.zSolve}, {KCopyFaces, st.copyFaces},
			} {
				st.Refresh()
				if n := npbtest.AllocsInStep(c, k.kernel); n != 0 {
					t.Errorf("procs=%d: %s allocates %v times per call, want 0", procs, k.name, n)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
