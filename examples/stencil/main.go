// stencil shows how to apply the coupling library to your own application:
// implement harness.Workload for it, and the library does the rest.
//
// The application here is a 2-D heat-diffusion loop with three kernels —
// STENCIL (5-point update), FLUX (boundary flux accumulation) and NORM
// (residual reduction) — timed with the repetition harness on the real
// clock. The three kernels share the grid arrays, so they couple through
// the cache exactly the way the NAS kernels do.
//
//	go run ./examples/stencil
//	go run ./examples/stencil -n 768 -trips 200
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"strings"

	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/timing"
)

// heatApp is a user application made measurable: it satisfies
// harness.Workload by timing its kernels with the timing package.
type heatApp struct {
	n          int
	grid, next []float64
	flux       []float64
	norm       float64
}

func newHeatApp(n int) *heatApp {
	a := &heatApp{
		n:    n,
		grid: make([]float64, n*n),
		next: make([]float64, n*n),
		flux: make([]float64, 4*n),
	}
	a.reset()
	return a
}

func (a *heatApp) reset() {
	n := a.n
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			a.grid[j*n+i] = math.Sin(float64(i)/7) * math.Cos(float64(j)/5)
		}
	}
}

// stencil is one 5-point Jacobi sweep.
func (a *heatApp) stencil() {
	n := a.n
	for j := 1; j < n-1; j++ {
		row := a.grid[j*n:]
		up := a.grid[(j-1)*n:]
		down := a.grid[(j+1)*n:]
		out := a.next[j*n:]
		for i := 1; i < n-1; i++ {
			out[i] = 0.25*(row[i-1]+row[i+1]+up[i]+down[i]) + 0.0*row[i]
		}
	}
	a.grid, a.next = a.next, a.grid
}

// fluxKernel accumulates boundary fluxes.
func (a *heatApp) fluxKernel() {
	n := a.n
	for i := 0; i < n; i++ {
		a.flux[i] += a.grid[i]             // north edge
		a.flux[n+i] += a.grid[(n-1)*n+i]   // south edge
		a.flux[2*n+i] += a.grid[i*n]       // west edge
		a.flux[3*n+i] += a.grid[i*n+(n-1)] // east edge
	}
}

// normKernel computes the grid's RMS.
func (a *heatApp) normKernel() {
	var s float64
	for _, v := range a.grid {
		s += v * v
	}
	a.norm = math.Sqrt(s / float64(len(a.grid)))
}

// Name implements harness.Workload.
func (a *heatApp) Name() string { return fmt.Sprintf("heat2d(%d)", a.n) }

// Kernels implements harness.Workload.
func (a *heatApp) Kernels() (pre, loop, post []string) {
	return nil, []string{"STENCIL", "FLUX", "NORM"}, nil
}

func (a *heatApp) run(name string) {
	switch name {
	case "STENCIL":
		a.stencil()
	case "FLUX":
		a.fluxKernel()
	case "NORM":
		a.normKernel()
	default:
		panic("unknown kernel " + name)
	}
}

// MeasureWindow implements harness.Workload with the repetition harness:
// the window sits in a loop timed under o's protocol, state is refreshed
// between timed blocks.
func (a *heatApp) MeasureWindow(window []string, o harness.Options) (float64, error) {
	res, err := timing.Measure(func() {
		for _, k := range window {
			a.run(k)
		}
	}, o.Protocol(), timing.Options{BetweenBlocks: a.reset})
	if err != nil {
		return 0, err
	}
	return res.PerPass, nil
}

// MeasureActual implements harness.Workload: the full loop, timed once.
func (a *heatApp) MeasureActual(trips int, _ harness.Options) (float64, error) {
	a.reset()
	_, loop, _ := a.Kernels()
	return timing.Once(func() {
		for t := 0; t < trips; t++ {
			for _, k := range loop {
				a.run(k)
			}
		}
	}, nil), nil
}

func main() {
	n := flag.Int("n", 512, "grid side length")
	trips := flag.Int("trips", 100, "loop trips of the measured application")
	flag.Parse()

	app := newHeatApp(*n)
	fmt.Printf("2-D heat diffusion, %dx%d grid, 3-kernel loop, %d trips\n\n", *n, *n, *trips)

	study, err := harness.RunStudy(app, *trips, []int{2, 3}, harness.Options{Blocks: 5, Passes: 20, ActualRuns: 3})
	if err != nil {
		log.Fatal(err)
	}

	ct := stats.NewTable("Coupling values", "Window", "C_S", "Regime")
	for _, L := range study.ChainLens() {
		for _, wc := range study.Details[L].Couplings {
			ct.AddRow(strings.Join(wc.Window, ", "), fmt.Sprintf("%.3f", wc.C), wc.Regime(0.02).String())
		}
	}
	fmt.Println(ct.String())

	pt := stats.NewTable("Predictions", "Predictor", "Seconds", "Relative Error")
	pt.AddRow("Actual", stats.Seconds(study.Actual), "-")
	pt.AddRow("Summation", stats.Seconds(study.Summation.Predicted), stats.Percent(study.Summation.RelErr))
	for _, L := range study.ChainLens() {
		p := study.Couplings[L]
		pt.AddRow(p.Label, stats.Seconds(p.Predicted), stats.Percent(p.RelErr))
	}
	fmt.Println(pt.String())
	fmt.Println("(STENCIL streams the whole grid; FLUX and NORM re-read it, so their")
	fmt.Println("couplings reflect whether the grid still fits in cache on this host.)")
}
