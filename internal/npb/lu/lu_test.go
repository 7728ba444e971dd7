package lu

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
	pre, loop, post := KernelNames()
	if len(pre) != 3 || len(loop) != 4 || len(post) != 3 {
		t.Fatalf("kernel groups %v / %v / %v", pre, loop, post)
	}
	want := []string{KSsorIter, KSsorLT, KSsorUT, KSsorRS}
	for i := range want {
		if loop[i] != want[i] {
			t.Fatalf("loop = %v", loop)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := tinyConfig(8, 4).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, p := range []int{3, 6, 12} {
		if err := tinyConfig(8, p).Validate(); err == nil {
			t.Errorf("procs=%d (not power of two) should fail", p)
		}
	}
	if err := tinyConfig(2, 2).Validate(); err == nil {
		t.Error("too-small grid should fail")
	}
	// The tile rule: every pencil is at least one plane wide along x and y.
	if err := tinyConfig(4, 16).Validate(); err != nil {
		t.Errorf("one-plane pencils rejected: %v", err)
	}
	if err := tinyConfig(3, 16).Validate(); err == nil {
		t.Error("3 points over a 4×4 pencil grid leave ranks no cells and should fail")
	}
}

func runNorms(t *testing.T, n, procs, trips int) ([5]float64, [5]float64, float64) {
	t.Helper()
	cfg := Config{Problem: npb.TinyProblem(n, trips), Procs: procs}
	f, err := Factory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre, loop, post := KernelNames()
	var norms, errN [5]float64
	var surf float64
	err = npb.RunOnce(f, pre, loop, trips, post, procs, func(ks npb.KernelSet) {
		st := ks.(*state)
		norms = st.Norms()
		errN = st.ErrNorms()
		surf = st.Surface()
	}, mpi.WithRecvTimeout(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return norms, errN, surf
}

func TestFullRunRankInvariance(t *testing.T) {
	ref, refErr, refSurf := runNorms(t, 12, 1, 3)
	for c, v := range ref {
		if v == 0 || math.IsNaN(v) {
			t.Fatalf("degenerate reference norm[%d] = %v", c, v)
		}
	}
	for _, procs := range []int{2, 4, 8} {
		got, gotErr, gotSurf := runNorms(t, 12, procs, 3)
		for c := range ref {
			if rel := math.Abs(got[c]-ref[c]) / ref[c]; rel > 1e-9 {
				t.Errorf("procs=%d norm[%d] = %.15g, serial %.15g (rel %e)", procs, c, got[c], ref[c], rel)
			}
			if rel := math.Abs(gotErr[c]-refErr[c]) / (refErr[c] + 1e-30); rel > 1e-9 {
				t.Errorf("procs=%d errNorm[%d] = %g vs %g", procs, c, gotErr[c], refErr[c])
			}
		}
		if rel := math.Abs(gotSurf-refSurf) / math.Abs(refSurf); rel > 1e-9 {
			t.Errorf("procs=%d surface = %g vs %g", procs, gotSurf, refSurf)
		}
	}
}

func TestSolutionEvolves(t *testing.T) {
	n1, _, _ := runNorms(t, 10, 1, 1)
	n5, _, _ := runNorms(t, 10, 1, 5)
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

func TestResidualDecreasesOverIterations(t *testing.T) {
	// SSOR drives the Newton residual down as u approaches the implicit
	// steady state on this smooth problem.
	cfg := Config{Problem: npb.TinyProblem(10, 12), Procs: 1}
	f, err := Factory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre, loop, post := KernelNames()
	var early, late float64
	err = f.Run(1, func(_ *mpi.Comm, ks npb.KernelSet, _ bool) {
		st := ks.(*state)
		for _, k := range pre {
			st.RunKernel(k)
		}
		for it := 0; it < 12; it++ {
			for _, k := range loop {
				st.RunKernel(k)
			}
			if it == 0 {
				early = st.ResNorms()[0]
			}
			if it == 11 {
				late = st.ResNorms()[0]
			}
		}
		for _, k := range post {
			st.RunKernel(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if early == 0 || late == 0 {
		t.Fatalf("degenerate residuals %v, %v", early, late)
	}
	if late >= early {
		t.Errorf("residual did not decrease: first %g, last %g", early, late)
	}
}

// TestLowerSweepSolvesTriangularSystem verifies on one rank that SSOR_LT's
// output v satisfies d·v + ω·(1+ε·u)·(la·v_w + lb·v_s + lc·v_b) = rhs for
// every cell, with zero boundary contributions.
func TestLowerSweepSolvesTriangularSystem(t *testing.T) {
	withState(t, tinyConfig(8, 1), func(st *state) {
		before := append([]float64(nil), st.rsd.Data...)
		st.ssorLT()
		rsd, u := st.rsd, st.u
		si, sj, sk := rsd.StrideI(), rsd.StrideJ(), rsd.StrideK()
		for k := 0; k < st.nz; k++ {
			for j := 0; j < st.nyl; j++ {
				rb := rsd.Idx(0, j, k)
				ub := u.Idx(0, j, k)
				for i := 0; i < st.nxl; i++ {
					cell := rb + i*5
					for c := 0; c < 5; c++ {
						uc := u.Data[ub+i*5+c]
						low := la*rsd.Data[cell-si+c] + lb*rsd.Data[cell-sj+c]
						if k > 0 {
							low += lc * rsd.Data[cell-sk+c]
						}
						got := (1+eps*uc)*rsd.Data[cell+c] + omega*low*(1+eps*uc)
						want := before[cell+c]
						if math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
							t.Fatalf("cell (%d,%d,%d,%d): %v != %v", c, i, j, k, got, want)
						}
					}
				}
			}
		}
	})
}

func TestUpperSweepSolvesTriangularSystem(t *testing.T) {
	withState(t, tinyConfig(8, 1), func(st *state) {
		before := append([]float64(nil), st.rsd.Data...)
		st.ssorUT()
		rsd, u := st.rsd, st.u
		si, sj, sk := rsd.StrideI(), rsd.StrideJ(), rsd.StrideK()
		for k := 0; k < st.nz; k++ {
			for j := 0; j < st.nyl; j++ {
				rb := rsd.Idx(0, j, k)
				ub := u.Idx(0, j, k)
				for i := 0; i < st.nxl; i++ {
					cell := rb + i*5
					for c := 0; c < 5; c++ {
						uc := u.Data[ub+i*5+c]
						up := la*rsd.Data[cell+si+c] + lb*rsd.Data[cell+sj+c]
						if k < st.nz-1 {
							up += lc * rsd.Data[cell+sk+c]
						}
						got := (1+eps*uc)*rsd.Data[cell+c] + omega*up*(1+eps*uc)
						want := before[cell+c]
						if math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
							t.Fatalf("cell (%d,%d,%d,%d): %v != %v", c, i, j, k, got, want)
						}
					}
				}
			}
		}
	})
}

func TestSsorRSUpdatesSolutionAndNorms(t *testing.T) {
	withState(t, tinyConfig(6, 1), func(st *state) {
		uBefore := append([]float64(nil), st.u.Data...)
		st.ssorRS()
		// Check one cell's update and that norms were published.
		i, j, k := 2, 3, 1
		ub := st.u.Idx(i, j, k)
		rb := st.rsd.Idx(i, j, k)
		for c := 0; c < 5; c++ {
			want := uBefore[ub+c] + omega2*st.rsd.Data[rb+c]
			if math.Abs(st.u.Data[ub+c]-want) > 1e-12 {
				t.Fatalf("u update wrong at comp %d", c)
			}
		}
		if st.ResNorms()[0] <= 0 {
			t.Error("residual norms not computed")
		}
	})
}

func TestPintgrCountsAllFaces(t *testing.T) {
	// On a constant field u ≡ const the surface integral is
	// const × (number of boundary cell-faces counted).
	withState(t, tinyConfig(6, 1), func(st *state) {
		for idx := range st.u.Data {
			st.u.Data[idx] = 0
		}
		for k := 0; k < st.nz; k++ {
			for j := 0; j < st.nyl; j++ {
				for i := 0; i < st.nxl; i++ {
					st.u.Data[st.u.Idx(i, j, k)] = 1
				}
			}
		}
		st.pintgr()
		n := 6
		want := float64(6 * n * n) // six faces of n×n cells
		if math.Abs(st.Surface()-want) > 1e-9 {
			t.Errorf("surface = %v, want %v", st.Surface(), want)
		}
	})
}

func TestErrorNormsZeroAtInitialization(t *testing.T) {
	// Right after INITIALIZATION u equals the reference field, so the
	// error norms must be ~0.
	withState(t, tinyConfig(6, 1), func(st *state) {
		st.initialize()
		st.errorNorms()
		for c, v := range st.ErrNorms() {
			if v > 1e-12 {
				t.Errorf("errNorm[%d] = %v, want 0", c, v)
			}
		}
	})
}

func TestRefreshRestoresState(t *testing.T) {
	withState(t, tinyConfig(6, 2), func(st *state) {
		u0 := append([]float64(nil), st.u.Data...)
		rsd0 := append([]float64(nil), st.rsd.Data...)
		st.ssorLT()
		st.ssorUT()
		st.ssorRS()
		st.Refresh()
		for i := range u0 {
			if st.u.Data[i] != u0[i] {
				t.Fatal("Refresh did not restore u")
			}
		}
		for i := range rsd0 {
			if st.rsd.Data[i] != rsd0[i] {
				t.Fatal("Refresh did not restore rsd")
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

func TestPencilShapes(t *testing.T) {
	// 8 ranks: pencil grid 4×2 (halve x, y, x).
	cfg := tinyConfig(8, 8)
	withState(t, cfg, func(st *state) {
		if st.nxl != 2 || st.nyl != 4 {
			t.Errorf("pencil %d×%d, want 2×4 (a 4×2 pencil grid over 8×8)", st.nxl, st.nyl)
		}
		if st.nz != 8 {
			t.Errorf("pencils must keep full z, got %d", st.nz)
		}
	})
}

func TestMeasureWindowSmoke(t *testing.T) {
	cfg := tinyConfig(8, 4)
	f, err := Factory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := npb.MeasureWindowDetail(f, []string{KSsorIter, KSsorLT}, timing.Protocol{Blocks: 2, Passes: 2}, npb.MeasureOptions{
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
