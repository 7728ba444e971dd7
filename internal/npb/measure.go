package npb

import (
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/timing"
)

// measuringStamps returns the stamps record of one rank of a world that
// times regions. Rank 0's carries the GC-cycle query timed reads, and
// building it records where the world got its rank state. A built world
// is readied exactly as a recycled one. No collection is forced:
// runtime.GC marks the process's whole live heap — a server's cache and
// every pooled configuration included — and the process is not the
// measurement's to collect. A collection that completes inside a timed
// region is counted there instead (WorldStats.GCOverlapped). The other
// ranks get the zero record RunOnce uses, and wait for rank 0 at the
// first region's lead barrier.
func measuringStamps(c *mpi.Comm, fresh bool, world *WorldStats) stamps {
	r := stamps{c: c}
	if c.Rank() == 0 {
		world.Recycled = !fresh
		r.gc = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	}
	return r
}

// gcCycles returns how many garbage-collection cycles the process has
// completed. Unlike runtime.ReadMemStats it does not stop the world, so it
// can sit right outside a timed region's clock stamps.
func gcCycles(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// stamps is one rank's record of the boundaries it passed, kept on the
// rank's stack for the world's life: nothing in it is allocated in a region.
type stamps struct {
	c          *mpi.Comm
	start, end time.Time        // the current timed region's edges
	kernel     string           // the running kernel, "" between kernels
	entry      time.Time        // when it was entered
	gc         []metrics.Sample // rank 0's GC-cycle query (measuringStamps), else nil
	gc0, gc1   uint64           // its readings before start and after end
}

// stamp is the measurement layer's one clock read: it reads the world's
// clock (Comm.Wtime) once at a boundary and returns the reading. It closes
// the running kernel, recording its span when a trace is attached, and
// enters next: a kernel, or "" at the last kernel's exit and at a timed
// region's edges, where no kernel runs.
//
//kcvet:hotpath every kernel boundary and region edge of every timed region is stamped here
func (r *stamps) stamp(next string) time.Time {
	now := r.c.Wtime()
	if tr := r.c.Trace(); tr != nil && r.kernel != "" {
		tr.Record(r.entry, obs.Span{Track: obs.TrackKernels, Rank: r.c.WorldRank(), Name: r.kernel, Elapsed: now.Sub(r.entry)})
	}
	r.kernel, r.entry = next, now
	return now
}

// timed runs body on every rank as one timed region — the one rule by
// which every window block and every full run is timed: a lead barrier,
// rank 0's GC-cycle read, the start stamp, body, a closing barrier so the
// slowest rank defines parallel time, the end stamp, rank 0's GC check.
// Rank 0 gets the region's seconds off its stamps and counts a collection
// that completed inside the region in world; the other ranks get 0.
//
//kcvet:hotpath every window block and every full run is timed here
func timed(c *mpi.Comm, r *stamps, world *WorldStats, body func()) float64 {
	c.Barrier()
	if r.gc != nil {
		r.gc0 = gcCycles(r.gc)
	}
	r.start = r.stamp("")
	body()
	c.Barrier()
	r.end = r.stamp("")
	if c.Rank() != 0 {
		return 0
	}
	if r.gc1 = gcCycles(r.gc); r.gc1 != r.gc0 {
		world.GCOverlapped++
	}
	return r.end.Sub(r.start).Seconds()
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
// its phase label from its entry stamp on; a kernel error fails the rank.
//
//kcvet:hotpath every kernel of every timed region is entered here
func runKernels(c *mpi.Comm, ks KernelSet, names []string, r *stamps) {
	for _, k := range names {
		c.SetPhase(k)
		r.stamp(k)
		if err := ks.RunKernel(k); err != nil {
			panic(fmt.Sprintf("npb: rank %d kernel %s: %v", c.Rank(), k, err))
		}
	}
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
		st := measuringStamps(c, fresh, &world)
		// One untimed warmup pass: the first execution after setup pays
		// cold-cache and lazy-allocation costs that belong to neither
		// the kernel nor its couplings. It is also what puts a recycled
		// world's caches in the state a built one's are in.
		runApp(c, ks, nil, window, 1, nil, &st)
		ks.Refresh()
		// Every rank runs the loop, so every rank takes part in each
		// block's region; only rank 0's stamps, and so its result, count.
		r := p.Time(func(b, passes int) float64 {
			if b > 0 {
				ks.Refresh()
			}
			return timed(c, &st, &world, func() { runApp(c, ks, nil, window, passes, nil, &st) })
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

// runApp executes an application on this rank — pre-kernels, trips passes
// through the loop ring (a window's passes have no pre or post),
// post-kernels — then stamps the last kernel's exit and clears its label.
func runApp(c *mpi.Comm, ks KernelSet, pre, loop []string, trips int, post []string, r *stamps) {
	runKernels(c, ks, pre, r)
	for it := 0; it < trips; it++ {
		runKernels(c, ks, loop, r)
	}
	runKernels(c, ks, post, r)
	c.SetPhase("")
	r.stamp("")
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
		st := measuringStamps(c, fresh, &world)
		secs := timed(c, &st, &world, func() { runApp(c, ks, pre, loop, trips, post, &st) })
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
		st := stamps{c: c}
		runApp(c, ks, pre, loop, trips, post, &st)
		c.Barrier()
		if c.Rank() == 0 && report != nil {
			report(ks)
		}
	}, worldOpts...)
}
