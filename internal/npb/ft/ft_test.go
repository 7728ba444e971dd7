package ft

import (
	"math"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/timing"
)

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

func TestConfigValidate(t *testing.T) {
	if err := (Config{N: 16, Procs: 4}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, bad := range []Config{
		{N: 12, Procs: 4}, // N not a power of two
		{N: 16, Procs: 3}, // procs not a power of two
		{N: 2, Procs: 1},  // too small
		{N: 8, Procs: 16}, // procs do not divide N
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", bad)
		}
	}
}

func TestClassProblem(t *testing.T) {
	for cls, n := range map[npb.Class]int{npb.ClassS: 64, npb.ClassW: 128, npb.ClassA: 256, npb.ClassB: 512} {
		cfg, err := ClassProblem(cls)
		if err != nil || cfg.N != n {
			t.Errorf("class %s: %+v, %v", cls, cfg, err)
		}
	}
	if _, err := ClassProblem("Z"); err == nil {
		t.Error("unknown class should fail")
	}
}

// naiveDFT computes the normalized DFT of one interleaved complex row.
func naiveDFT(row []float64) []float64 {
	n := len(row) / 2
	out := make([]float64, len(row))
	inv := 1 / math.Sqrt(float64(n))
	for k := 0; k < n; k++ {
		var re, im float64
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			re += row[2*j]*c - row[2*j+1]*s
			im += row[2*j]*s + row[2*j+1]*c
		}
		out[2*k] = re * inv
		out[2*k+1] = im * inv
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	withState(t, Config{N: 16, Procs: 1}, func(st *state) {
		want := make([][]float64, st.rows)
		for li := 0; li < st.rows; li++ {
			row := append([]float64(nil), st.data[2*li*st.n:2*(li+1)*st.n]...)
			want[li] = naiveDFT(row)
		}
		st.fftRows()
		for li := 0; li < st.rows; li++ {
			got := st.data[2*li*st.n : 2*(li+1)*st.n]
			for i := range want[li] {
				if math.Abs(got[i]-want[li][i]) > 1e-9 {
					t.Fatalf("row %d elem %d: got %v, want %v", li, i, got[i], want[li][i])
				}
			}
		}
	})
}

func TestTransposeSerial(t *testing.T) {
	withState(t, Config{N: 8, Procs: 1}, func(st *state) {
		orig := append([]float64(nil), st.data...)
		st.transpose()
		for i := 0; i < st.n; i++ {
			for j := 0; j < st.n; j++ {
				gotRe := st.data[2*(i*st.n+j)]
				wantRe := orig[2*(j*st.n+i)]
				if gotRe != wantRe {
					t.Fatalf("transpose wrong at (%d,%d)", i, j)
				}
			}
		}
		if !st.transposed {
			t.Error("parity not flipped")
		}
	})
}

func TestTransposeInvolutive(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		withState(t, Config{N: 16, Procs: procs}, func(st *state) {
			orig := append([]float64(nil), st.data...)
			st.transpose()
			st.transpose()
			for i := range orig {
				if st.data[i] != orig[i] {
					t.Fatalf("procs=%d: double transpose is not identity at %d", procs, i)
				}
			}
			if st.transposed {
				t.Error("parity should be restored")
			}
		})
	}
}

func TestIterationIsUnitary(t *testing.T) {
	// A full ring pass (evolve, fft, transpose, fft) preserves Σ|u|².
	withState(t, Config{N: 32, Procs: 4}, func(st *state) {
		st.final()
		before := st.energy
		_, loop, _ := KernelNames()
		for it := 0; it < 5; it++ {
			for _, k := range loop {
				if err := st.RunKernel(k); err != nil {
					panic(err)
				}
			}
		}
		st.final()
		if rel := math.Abs(st.energy-before) / before; rel > 1e-9 {
			t.Errorf("energy drifted by %e over 5 unitary iterations", rel)
		}
	})
}

func runNorms(t *testing.T, n, procs, trips int) [5]float64 {
	t.Helper()
	f, err := Factory(Config{N: n, Procs: procs})
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
	ref := runNorms(t, 32, 1, 3)
	if ref[0] == 0 {
		t.Fatal("degenerate energy")
	}
	for _, procs := range []int{2, 4, 8} {
		got := runNorms(t, 32, procs, 3)
		for c := 0; c < 3; c++ {
			denom := math.Abs(ref[c])
			if denom < 1e-12 {
				denom = 1
			}
			if rel := math.Abs(got[c]-ref[c]) / denom; rel > 1e-9 {
				t.Errorf("procs=%d norm[%d] = %.15g, serial %.15g", procs, c, got[c], ref[c])
			}
		}
	}
}

func TestSolutionEvolves(t *testing.T) {
	// The complex sum (not the energy) must change across iterations.
	a := runNorms(t, 16, 1, 1)
	b := runNorms(t, 16, 1, 4)
	if a[1] == b[1] && a[2] == b[2] {
		t.Error("solution did not evolve")
	}
}

func TestRefreshRestoresState(t *testing.T) {
	withState(t, Config{N: 16, Procs: 2}, func(st *state) {
		d0 := append([]float64(nil), st.data...)
		st.evolve()
		st.fftRows()
		st.transpose()
		st.Refresh()
		if st.transposed {
			t.Error("parity not restored")
		}
		for i := range d0 {
			if st.data[i] != d0[i] {
				t.Fatal("data not restored")
			}
		}
	})
}

func TestEvolveUsesParityTable(t *testing.T) {
	withState(t, Config{N: 8, Procs: 1}, func(st *state) {
		// Evolving in the two layouts must differ (distinct tables).
		a := append([]float64(nil), st.data...)
		st.evolve()
		straight := append([]float64(nil), st.data...)
		copy(st.data, a)
		st.transposed = true
		st.evolve()
		same := true
		for i := range straight {
			if st.data[i] != straight[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("parity tables are not distinct")
		}
	})
}

func TestRunKernelUnknown(t *testing.T) {
	withState(t, Config{N: 8, Procs: 1}, func(st *state) {
		if err := st.RunKernel("NOPE"); err == nil {
			t.Error("unknown kernel should error")
		}
	})
}

func TestMeasureWindowSmoke(t *testing.T) {
	f, err := Factory(Config{N: 32, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	wm, err := npb.MeasureWindowDetail(f, []string{KFFTX, KTranspose}, timing.Protocol{Blocks: 2, Passes: 2}, npb.MeasureOptions{
		Procs:     4,
		WorldOpts: []mpi.Option{mpi.WithRecvTimeout(60 * time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	secs := wm.PerPass
	if secs <= 0 {
		t.Errorf("per-pass time %v", secs)
	}
}
