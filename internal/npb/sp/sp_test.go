package sp

import (
	"math"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/timing"
)

func tinyConfig(n, procs int) Config {
	return Config{Problem: npb.TinyProblem(n, 3), Procs: procs}
}

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
	pre, loop, post := Benchmark.Pre, Benchmark.Loop, Benchmark.Post
	if len(pre) != 1 || len(post) != 1 {
		t.Errorf("pre/post = %v/%v", pre, post)
	}
	want := []string{KCopyFaces, KTxinvr, KXSolve, KYSolve, KZSolve, KAdd}
	if len(loop) != len(want) {
		t.Fatalf("loop = %v", loop)
	}
	for i := range want {
		if loop[i] != want[i] {
			t.Fatalf("loop = %v, want %v", loop, want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := tinyConfig(8, 4).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := tinyConfig(8, 2).Validate(); err == nil {
		t.Error("non-square proc count should fail")
	}
	if err := tinyConfig(4, 1).Validate(); err == nil {
		t.Error("grid thinner than the ±2 stencil should fail")
	}
	// Tiles must be at least 2 deep: 8 points over 4 ranks per dim = 2, ok;
	// 8 over 16 ranks per dim... 8/4=2 ok with 16 procs; use 6 over 16.
	if err := tinyConfig(6, 16).Validate(); err == nil {
		t.Error("tiles thinner than the halo should fail")
	}
	if err := tinyConfig(6, 9).Validate(); err != nil {
		t.Errorf("two-plane tiles rejected: %v", err)
	}
	if err := tinyConfig(5, 9).Validate(); err == nil {
		t.Error("5 points over a 3×3 grid leave one-plane tiles and should fail")
	}
}

func runNorms(t *testing.T, n, procs, trips int) [5]float64 {
	t.Helper()
	cfg := Config{Problem: npb.TinyProblem(n, trips), Procs: procs}
	f, err := Factory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre, loop, post := Benchmark.Pre, Benchmark.Loop, Benchmark.Post
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

// residualCheck verifies that the solved rhs satisfies the pentadiagonal
// systems built from u along one dimension (single-rank state).
func residualCheck(t *testing.T, st *state, n, nLines int, uBase func(int) int, uStride int, rBase func(int) int, rStride int, before []float64) {
	t.Helper()
	uData := st.u.Data
	v := st.rhs.Data
	for l := 0; l < nLines; l++ {
		uOff := uBase(l)
		rOff := rBase(l)
		for c := 0; c < 5; c++ {
			for tt := 0; tt < n; tt++ {
				cu := uOff + tt*uStride
				cr := rOff + tt*rStride
				a2, a1, b, c1, c2 := coeffs(uData, cu, uStride, c)
				sum := b * v[cr+c]
				if tt >= 2 {
					sum += a2 * v[cr-2*rStride+c]
				}
				if tt >= 1 {
					sum += a1 * v[cr-rStride+c]
				}
				if tt < n-1 {
					sum += c1 * v[cr+rStride+c]
				}
				if tt < n-2 {
					sum += c2 * v[cr+2*rStride+c]
				}
				want := before[cr+c]
				if math.Abs(sum-want) > 1e-8*(1+math.Abs(want)) {
					t.Fatalf("line %d comp %d pos %d: operator·x = %v, rhs was %v", l, c, tt, sum, want)
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

func TestTxinvrAppliesTransform(t *testing.T) {
	withState(t, tinyConfig(6, 1), func(st *state) {
		before := append([]float64(nil), st.rhs.Data...)
		st.txinvr()
		// Spot-check one cell against the rank-one update formula.
		i, j, k := 2, 3, 1
		ub := st.u.Idx(i, j, k)
		rb := st.rhs.Idx(i, j, k)
		dot := 0.0
		for c := 0; c < 5; c++ {
			dot += txWeights[c] * before[rb+c]
		}
		for c := 0; c < 5; c++ {
			want := before[rb+c] + epsT*st.u.Data[ub+c]*dot
			if math.Abs(st.rhs.Data[rb+c]-want) > 1e-12 {
				t.Fatalf("comp %d: got %v, want %v", c, st.rhs.Data[rb+c], want)
			}
		}
	})
}

func TestTxinvrIsInvertibleInPractice(t *testing.T) {
	// The transform must not annihilate the rhs (it participates in a
	// solve chain); check it changes but does not zero the field.
	withState(t, tinyConfig(6, 1), func(st *state) {
		var normBefore float64
		for _, v := range st.rhs.Data {
			normBefore += v * v
		}
		st.txinvr()
		var normAfter float64
		for _, v := range st.rhs.Data {
			normAfter += v * v
		}
		if normAfter == 0 || math.Abs(normAfter-normBefore)/normBefore > 0.5 {
			t.Errorf("txinvr norm change suspicious: %v -> %v", normBefore, normAfter)
		}
	})
}

func TestRefreshRestoresState(t *testing.T) {
	withState(t, tinyConfig(6, 1), func(st *state) {
		u0 := append([]float64(nil), st.u.Data...)
		st.xSolve()
		st.add()
		st.Refresh()
		for i := range u0 {
			if st.u.Data[i] != u0[i] {
				t.Fatal("Refresh did not restore u")
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
// before its cosine and sine factors were tabulated.
func exact(c int, x, y, z float64) float64 {
	fc := float64(c + 1)
	return 1.0 + 0.25*math.Cos(math.Pi*(x*fc+y))*math.Sin(math.Pi*(z+0.4*fc)) +
		0.15*fc*(x+y*z)
}

func TestTwoDeepGhostExchange(t *testing.T) {
	// After setup the depth-2 ghosts must hold the neighbor's interior
	// (checked against the known initialization function).
	cfg := tinyConfig(8, 4)
	withState(t, cfg, func(st *state) {
		p := cfg.Problem
		hx := 1.0 / float64(p.N1-1)
		hy := 1.0 / float64(p.N2-1)
		hz := 1.0 / float64(p.N3-1)
		if ry, rz := st.Owned(npb.AxisY), st.Owned(npb.AxisZ); ry.Lo > 0 {
			for _, j := range []int{-1, -2} {
				gy := float64(ry.Lo+j) * hy
				for k := 0; k < st.nzl; k++ {
					gz := float64(rz.Lo+k) * hz
					for i := 0; i < st.nx; i++ {
						gx := float64(i) * hx
						for c := 0; c < 5; c++ {
							want := exact(c, gx, gy, gz)
							if got := st.u.At(c, i, j, k); math.Abs(got-want) > 1e-12 {
								t.Fatalf("ghost (%d,%d,%d,%d) = %v, want %v", c, i, j, k, got, want)
							}
						}
					}
				}
			}
		}
	})
}

func TestUnevenTileDecomposition(t *testing.T) {
	ref := runNorms(t, 11, 1, 2) // 11 over 2 ranks per dim: 6/5 tiles
	got := runNorms(t, 11, 4, 2)
	for c := range ref {
		rel := math.Abs(got[c]-ref[c]) / ref[c]
		if rel > 1e-9 {
			t.Errorf("norm[%d]: %g vs %g", c, got[c], ref[c])
		}
	}
}

func TestMeasureWindowSmoke(t *testing.T) {
	cfg := tinyConfig(8, 4)
	f, err := Factory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := npb.MeasureWindowDetail(f, []string{KTxinvr, KXSolve}, timing.Protocol{Blocks: 2, Passes: 2}, npb.MeasureOptions{
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
