package npb

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/mpi"
	"repro/internal/timing"
)

// quiesce readies a world's rank 0 to time its regions: it records where
// the world got its rank state and returns the GC-cycle query timed reads.
// In a world that built its rank state it first runs a garbage collection,
// so that the heap pressure set-up accumulated (fields, factor tables,
// snapshots: megabytes a rank) is unlikely to force a collection inside a
// region; runtime.GC also waits out a cycle those allocations already
// started. A world that rebound an idle set allocated no fields and collects
// nothing: a forced collection marks the process's whole live heap — a
// server's cache included — and WorldStats.GCOverlapped counts what it used
// to promise. The other ranks get nil and wait for rank 0 at the first
// region's lead barrier.
func quiesce(c *mpi.Comm, fresh bool, world *WorldStats) []metrics.Sample {
	if c.Rank() != 0 {
		return nil
	}
	world.Recycled = !fresh
	if fresh {
		runtime.GC()
	}
	return []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
}

// gcCycles returns how many garbage-collection cycles the process has
// completed. Unlike runtime.ReadMemStats it does not stop the world, so it
// can sit right outside a timed region's clock stamps.
func gcCycles(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timed runs body on every rank as one timed region — the one rule by
// which every window block and every full run is timed: a lead barrier,
// rank 0's clock stamp and GC-cycle read, body, a closing barrier so the
// slowest rank defines parallel time, rank 0's stamp and GC check. Rank 0
// is the only stamper; it gets the region's wall-clock seconds and counts
// a collection that completed inside it in world. The other ranks get 0.
// gc is quiesce's query.
//
//kcvet:hotpath every window block and every full run is timed here
func timed(c *mpi.Comm, gc []metrics.Sample, world *WorldStats, body func()) float64 {
	c.Barrier()
	var t0 time.Time
	var gc0 uint64
	if c.Rank() == 0 {
		gc0 = gcCycles(gc)
		t0 = c.Wtime()
	}
	body()
	c.Barrier()
	if c.Rank() != 0 {
		return 0
	}
	secs := c.Wtime().Sub(t0).Seconds()
	if gcCycles(gc) != gc0 {
		world.GCOverlapped++
	}
	return secs
}

// WorldStats says where the world behind a measurement got its rank state
// and whether the collector ran under its timed regions.
type WorldStats struct {
	// Recycled reports that the world rebound the set an earlier world of
	// the same factory left, instead of building its own.
	Recycled bool
	// GCOverlapped counts the timed regions (a window measurement's
	// blocks, a full run's one) during which a garbage-collection cycle
	// completed, read on rank 0 outside the region's clock stamps (timed).
	GCOverlapped int
}

// MeasureOptions configures the world a measurement runs in; how much it
// times, and how it aggregates, is the timing.Protocol's.
type MeasureOptions struct {
	// Procs is the number of ranks.
	Procs int
	// WorldOpts configures the mpi.World, e.g. a network cost model.
	WorldOpts []mpi.Option
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

// MeasureWindowDetail runs a world of the factory, and times Blocks×Passes
// executions of the kernel window in application order, following the
// paper's methodology: the window sits in a loop that dominates the
// measurement, all setup is outside the timed region, and each of the
// protocol's blocks (timing.Protocol.Time) is one timed region. It returns
// the per-pass wall-clock seconds, aggregated across blocks under the
// protocol, with the per-block timings and trim decision — the provenance
// behind each reported coupling value — and where the world got its state.
func MeasureWindowDetail(f *Factory, window []string, p timing.Protocol, o MeasureOptions) (timing.Result, WorldStats, error) {
	if len(window) == 0 {
		return timing.Result{}, WorldStats{}, fmt.Errorf("npb: empty measurement window")
	}
	var res timing.Result
	var world WorldStats
	err := f.Run(o.Procs, func(c *mpi.Comm, ks KernelSet, fresh bool) {
		// One untimed warmup pass: the first execution after setup pays
		// cold-cache and lazy-allocation costs that belong to neither
		// the kernel nor its couplings. It is also what puts a recycled
		// world's caches in the state a built one's are in.
		runKernels(c, ks, window)
		ks.Refresh()
		gc := quiesce(c, fresh, &world)
		// Every rank runs the loop, so every rank takes part in each
		// block's region; only rank 0's stamps, and so its result, count.
		r := p.Time(func(b, passes int) float64 {
			if b > 0 {
				ks.Refresh()
			}
			return timed(c, gc, &world, func() {
				for i := 0; i < passes; i++ {
					runKernels(c, ks, window)
				}
			})
		})
		if c.Rank() == 0 {
			res = r
		}
	}, o.WorldOpts...)
	if err != nil {
		return timing.Result{}, WorldStats{}, err
	}
	return res, world, nil
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
	var elapsed float64
	var world WorldStats
	err := f.Run(o.Procs, func(c *mpi.Comm, ks KernelSet, fresh bool) {
		gc := quiesce(c, fresh, &world)
		secs := timed(c, gc, &world, func() { runApp(c, ks, pre, loop, trips, post) })
		if c.Rank() == 0 {
			elapsed = secs
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
