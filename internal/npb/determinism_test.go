package npb_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/bt"
	"repro/internal/npb/ft"
	"repro/internal/npb/lu"
	"repro/internal/npb/npbtest"
	"repro/internal/npb/sp"
	"repro/internal/predict"
	"repro/internal/tables"
	"repro/internal/timing"
)

// normed is the verification interface every benchmark state implements.
type normed interface {
	Norms() [5]float64
}

// runTwice runs the same benchmark twice and returns both norm vectors.
func runTwice(t *testing.T, factory *npb.Factory, pre, loop, post []string, trips, procs int) (a, b [5]float64) {
	t.Helper()
	collect := func() [5]float64 {
		var norms [5]float64
		err := npb.RunOnce(factory, pre, loop, trips, post, procs, func(ks npb.KernelSet) {
			norms = ks.(normed).Norms()
		}, mpi.WithRecvTimeout(60*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return norms
	}
	return collect(), collect()
}

// The benchmarks must be bitwise deterministic: two identical runs produce
// identical verification norms (no map-iteration, scheduling, or
// uninitialized-memory dependence in the numerics).
func TestBTDeterministic(t *testing.T) {
	factory, err := bt.Factory(bt.Config{Problem: npb.TinyProblem(10, 2), Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	pre, loop, post := bt.Benchmark.Pre, bt.Benchmark.Loop, bt.Benchmark.Post
	a, b := runTwice(t, factory, pre, loop, post, 2, 4)
	if a != b {
		t.Errorf("BT runs differ: %v vs %v", a, b)
	}
}

func TestSPDeterministic(t *testing.T) {
	factory, err := sp.Factory(sp.Config{Problem: npb.TinyProblem(10, 2), Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	pre, loop, post := sp.Benchmark.Pre, sp.Benchmark.Loop, sp.Benchmark.Post
	a, b := runTwice(t, factory, pre, loop, post, 2, 4)
	if a != b {
		t.Errorf("SP runs differ: %v vs %v", a, b)
	}
}

func TestLUDeterministic(t *testing.T) {
	factory, err := lu.Factory(lu.Config{Problem: npb.TinyProblem(10, 2), Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	pre, loop, post := lu.Benchmark.Pre, lu.Benchmark.Loop, lu.Benchmark.Post
	a, b := runTwice(t, factory, pre, loop, post, 2, 4)
	if a != b {
		t.Errorf("LU runs differ: %v vs %v", a, b)
	}
}

func TestFTDeterministic(t *testing.T) {
	factory, err := ft.Factory(ft.Config{N: 16, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	pre, loop, post := ft.Benchmark.Pre, ft.Benchmark.Loop, ft.Benchmark.Post
	a, b := runTwice(t, factory, pre, loop, post, 2, 4)
	if a != b {
		t.Errorf("FT runs differ: %v vs %v", a, b)
	}
}

// TestBenchmarksSurviveArbitraryKernelWindows drives each benchmark
// through windows the coupling harness would measure — including ones
// that skip the RHS computation — checking that no kernel panics on the
// numerical state another window leaves behind.
func TestBenchmarksSurviveArbitraryKernelWindows(t *testing.T) {
	cases := []struct {
		name    string
		factory func() (*npb.Factory, []string, error)
	}{
		{"BT", func() (*npb.Factory, []string, error) {
			f, err := bt.Factory(bt.Config{Problem: npb.TinyProblem(8, 2), Procs: 4})
			return f, bt.Benchmark.Loop, err
		}},
		{"SP", func() (*npb.Factory, []string, error) {
			f, err := sp.Factory(sp.Config{Problem: npb.TinyProblem(8, 2), Procs: 4})
			return f, sp.Benchmark.Loop, err
		}},
		{"LU", func() (*npb.Factory, []string, error) {
			f, err := lu.Factory(lu.Config{Problem: npb.TinyProblem(8, 2), Procs: 4})
			return f, lu.Benchmark.Loop, err
		}},
		{"FT", func() (*npb.Factory, []string, error) {
			f, err := ft.Factory(ft.Config{N: 16, Procs: 4})
			return f, ft.Benchmark.Loop, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			factory, loop, err := tc.factory()
			if err != nil {
				t.Fatal(err)
			}
			// Every cyclic pairwise window plus a reversed-order window:
			// repeated application must stay numerically alive.
			windows := make([][]string, 0, len(loop)+1)
			for i := range loop {
				windows = append(windows, []string{loop[i], loop[(i+1)%len(loop)]})
			}
			windows = append(windows, []string{loop[len(loop)-1], loop[0]})
			for _, win := range windows {
				if _, _, err := npb.MeasureWindowDetail(factory, win, timing.Protocol{Blocks: 2, Passes: 3}, npb.MeasureOptions{
					Procs:     4,
					WorldOpts: []mpi.Option{mpi.WithRecvTimeout(60 * time.Second)},
				}); err != nil {
					t.Fatalf("window %v: %v", win, err)
				}
			}
		})
	}
}

// TestRecycledWorldDoesNotAllocateFields bounds what a world that rebinds an
// idle set allocates: the mpi world, its mailboxes and message payloads,
// the line communicators — nothing the size of a field. At class S on four
// ranks a world that builds its state allocates 210–310 kB a rank and one
// that rebinds 2–11 kB (message payloads come from mpi's process-wide
// pools); 64 kB a rank tells the two apart.
func TestRecycledWorldDoesNotAllocateFields(t *testing.T) {
	if npbtest.RaceEnabled() {
		t.Skip("sync.Pool drops Puts under -race, so a world re-grows its message payloads")
	}
	const procs, perRank = 4, 64 << 10
	for _, bench := range []string{"BT", "SP", "LU"} {
		t.Run(bench, func(t *testing.T) {
			prob, err := tables.PredictProblem(predict.Query{Bench: bench, Class: npb.ClassS})
			if err != nil {
				t.Fatal(err)
			}
			w, err := tables.NewWorkload(bench, npb.ClassS, prob, procs, nil)
			if err != nil {
				t.Fatal(err)
			}
			f, loop := w.Factory, w.Loop
			measure := func() (uint64, npb.WorldStats) {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				_, world, err := npb.MeasureWindowDetail(f, loop, timing.Protocol{}, npb.MeasureOptions{Procs: procs})
				if err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&m1)
				return m1.TotalAlloc - m0.TotalAlloc, world
			}
			built, world := measure()
			if world.Recycled {
				t.Fatal("a factory's first world cannot be recycled")
			}
			recycled, world := measure()
			if !world.Recycled {
				t.Fatal("a factory's second world should rebind the first's state")
			}
			t.Logf("%s: a built world allocates %d kB, a recycled one %d kB", w.Name(), built>>10, recycled>>10)
			if recycled > procs*perRank {
				t.Errorf("recycled world allocated %d B, over %d B a rank: it is building fields", recycled, perRank)
			}
		})
	}
}
