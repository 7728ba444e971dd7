package npb

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/mpi"
	"repro/internal/stats"
)

// quiesce synchronizes the ranks ahead of a timed region, and in a world
// that built its rank state first runs a garbage collection from rank 0, so
// that the heap pressure set-up accumulated (fields, factor tables,
// snapshots: megabytes a rank) is unlikely to force a collection inside the
// region. runtime.GC also waits out a cycle those allocations already
// started. A world that rebound an idle set allocated no fields and collects
// nothing: a forced collection marks the process's whole live heap — a
// server's cache included — and WorldStats.GCOverlapped counts what it used
// to promise. Every rank must call it.
func quiesce(c *mpi.Comm, fresh bool) {
	if fresh && c.Rank() == 0 {
		runtime.GC()
	}
	c.Barrier()
}

// gcCyclesSample is the runtime/metrics query behind gcCycles.
func gcCyclesSample() []metrics.Sample {
	return []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
}

// gcCycles returns how many garbage-collection cycles the process has
// completed. Unlike runtime.ReadMemStats it does not stop the world, so it
// can sit right outside a timed region's clock stamps.
func gcCycles(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// WorldStats says where the world behind a measurement got its rank state
// and whether the collector ran under its timed regions.
type WorldStats struct {
	// Recycled reports that the world rebound the set an earlier world of
	// the same factory left, instead of building its own.
	Recycled bool
	// GCOverlapped counts the timed regions (a window measurement's
	// blocks, a full run's one) during which a garbage-collection cycle
	// completed, read on rank 0 outside the region's clock stamps.
	GCOverlapped int
}

// MeasureOptions configures a timed measurement across a world of ranks.
type MeasureOptions struct {
	// Procs is the number of ranks.
	Procs int
	// Blocks is the number of independently timed blocks (default 3).
	Blocks int
	// Passes is how many passes through the window each block times
	// (default 1).
	Passes int
	// TrimFrac is the two-sided trim for aggregating blocks. Zero picks
	// the default (median-like 0.34 for Blocks >= 3); negative forces
	// the raw mean — the knob behind the trimming ablation. Because
	// -0.0 == 0 in Go, a negative zero still selects the default, and a
	// NaN is normalized to the default rather than leaking into the
	// aggregation (int(Blocks*NaN) is unspecified).
	TrimFrac float64
	// WorldOpts configures the mpi.World, e.g. a network cost model.
	WorldOpts []mpi.Option
}

func (o MeasureOptions) withDefaults() MeasureOptions {
	if o.Blocks <= 0 {
		o.Blocks = 3
	}
	if o.Passes <= 0 {
		o.Passes = 1
	}
	if math.IsNaN(o.TrimFrac) {
		o.TrimFrac = 0 // NaN compares false with everything; treat as unset
	}
	if o.TrimFrac == 0 && o.Blocks >= 3 {
		// Timing on a shared host has a heavy upper tail (GC cycles,
		// scheduler interference); trimming toward the median is far
		// more robust than the mean for small block counts.
		o.TrimFrac = 0.34
	}
	if o.TrimFrac < 0 {
		o.TrimFrac = 0 // explicit raw mean (the trimming ablation)
	}
	return o
}

// WindowMeasurement is the full record of one window measurement: the
// aggregate the predictors consume plus the raw per-block timings and the
// trim that produced the aggregate, so every reported coupling value can
// be traced back to the block decisions behind it.
type WindowMeasurement struct {
	// Window is the measured kernel window in application order.
	Window []string
	// PerPass is the aggregated per-pass wall-clock seconds — the value
	// MeasureWindow returns.
	PerPass float64
	// Blocks holds each timed block's per-pass seconds in block order,
	// before trimming.
	Blocks []float64
	// TrimFrac is the effective two-sided trim applied (after sentinel
	// resolution: 0 here means the raw mean was used).
	TrimFrac float64
	// Passes is the number of window passes each block timed.
	Passes int
	// World describes the world the blocks were timed in.
	World WorldStats
}

// runKernels executes the named kernels on this rank in order, each under
// its phase label; a kernel error fails the rank.
func runKernels(c *mpi.Comm, ks KernelSet, names []string) {
	for _, k := range names {
		c.SetPhase(k)
		if err := ks.RunKernel(k); err != nil {
			panic(fmt.Sprintf("npb: rank %d kernel %s: %v", c.Rank(), k, err))
		}
	}
	c.SetPhase("")
}

// MeasureWindow runs a world of the factory, and times Blocks×Passes
// executions of the kernel window in application order, following the
// paper's methodology: the window sits in a loop that dominates the
// measurement, all setup is outside the timed region, and barriers bound
// each block so the slowest rank defines parallel time.
// It returns the per-pass wall-clock seconds (trimmed mean across blocks).
func MeasureWindow(f *Factory, window []string, o MeasureOptions) (float64, error) {
	wm, err := MeasureWindowDetail(f, window, o)
	if err != nil {
		return 0, err
	}
	return wm.PerPass, nil
}

// MeasureWindowDetail is MeasureWindow keeping the per-block timings and
// trim decision — the provenance behind each reported coupling value.
func MeasureWindowDetail(f *Factory, window []string, o MeasureOptions) (WindowMeasurement, error) {
	if len(window) == 0 {
		return WindowMeasurement{}, fmt.Errorf("npb: empty measurement window")
	}
	o = o.withDefaults()
	blockTimes := make([]float64, 0, o.Blocks)
	var world WorldStats
	err := f.Run(o.Procs, func(c *mpi.Comm, ks KernelSet, fresh bool) {
		// One untimed warmup pass: the first execution after setup pays
		// cold-cache and lazy-allocation costs that belong to neither
		// the kernel nor its couplings. It is also what puts a recycled
		// world's caches in the state a built one's are in.
		runKernels(c, ks, window)
		ks.Refresh()
		var gc []metrics.Sample
		if c.Rank() == 0 {
			world.Recycled = !fresh
			gc = gcCyclesSample()
		}
		quiesce(c, fresh)
		for b := 0; b < o.Blocks; b++ {
			if b > 0 {
				ks.Refresh()
			}
			c.Barrier()
			var t0 time.Time
			var gc0 uint64
			if c.Rank() == 0 {
				gc0 = gcCycles(gc)
				t0 = c.Wtime()
			}
			for p := 0; p < o.Passes; p++ {
				runKernels(c, ks, window)
			}
			c.Barrier()
			if c.Rank() == 0 {
				blockTimes = append(blockTimes, c.Wtime().Sub(t0).Seconds()/float64(o.Passes))
				if gcCycles(gc) != gc0 {
					world.GCOverlapped++
				}
			}
		}
	}, o.WorldOpts...)
	if err != nil {
		return WindowMeasurement{}, err
	}
	return WindowMeasurement{
		Window:   append([]string(nil), window...),
		PerPass:  stats.TrimmedMean(blockTimes, o.TrimFrac),
		Blocks:   blockTimes,
		TrimFrac: o.TrimFrac,
		Passes:   o.Passes,
		World:    world,
	}, nil
}

// runApp executes a complete application on this rank: pre-kernels, trips
// passes through the loop ring, post-kernels.
func runApp(c *mpi.Comm, ks KernelSet, pre, loop []string, trips int, post []string) {
	runKernels(c, ks, pre)
	for it := 0; it < trips; it++ {
		runKernels(c, ks, loop)
	}
	runKernels(c, ks, post)
}

// MeasureFull times a complete application run — pre-kernels, trips passes
// through the loop ring, post-kernels — and returns the wall-clock seconds.
// This is the "Actual" row of the paper's comparison tables. Setup via the
// factory is excluded; the pre-kernels (e.g. INITIALIZATION) re-establish
// state inside the timed region just as the real benchmark does. There is
// no warm-up pass: a run in a built world first touches its scratch arrays
// inside the timed region, one in a recycled world finds them faulted in.
func MeasureFull(f *Factory, pre, loop []string, trips int, post []string, o MeasureOptions) (float64, WorldStats, error) {
	if len(loop) == 0 || trips < 1 {
		return 0, WorldStats{}, fmt.Errorf("npb: full run needs a loop ring and trips >= 1")
	}
	o = o.withDefaults()
	var elapsed float64
	var world WorldStats
	err := f.Run(o.Procs, func(c *mpi.Comm, ks KernelSet, fresh bool) {
		var gc []metrics.Sample
		if c.Rank() == 0 {
			world.Recycled = !fresh
			gc = gcCyclesSample()
		}
		quiesce(c, fresh)
		var t0 time.Time
		var gc0 uint64
		if c.Rank() == 0 {
			gc0 = gcCycles(gc)
			t0 = c.Wtime()
		}
		runApp(c, ks, pre, loop, trips, post)
		c.Barrier()
		if c.Rank() == 0 {
			elapsed = c.Wtime().Sub(t0).Seconds()
			if gcCycles(gc) != gc0 {
				world.GCOverlapped++
			}
		}
	}, o.WorldOpts...)
	if err != nil {
		return 0, WorldStats{}, err
	}
	return elapsed, world, nil
}

// RunOnce executes the full application once without timing, collecting
// each rank's verification report from the post stage. It exists for
// correctness tests and the npbrun tool. report is called on rank 0 after
// the run with the kernel set, so benchmarks can expose verification state;
// the set goes back to the factory when the world ends, so report must not
// keep it.
func RunOnce(f *Factory, pre, loop []string, trips int, post []string, procs int, report func(KernelSet), worldOpts ...mpi.Option) error {
	return f.Run(procs, func(c *mpi.Comm, ks KernelSet, _ bool) {
		runApp(c, ks, pre, loop, trips, post)
		c.Barrier()
		if c.Rank() == 0 && report != nil {
			report(ks)
		}
	}, worldOpts...)
}
