// Command npbrun executes one of the reimplemented NAS benchmarks (BT, SP,
// LU or FT) directly: it runs the full application — one-shot pre-kernels,
// the main loop, verification post-kernels — reports the wall-clock time
// and prints the verification norms, which are invariant across rank
// counts (the distributed solvers perform the same floating-point
// operations in the same order as the serial ones).
//
//	npbrun -bench BT -class S -procs 4
//	npbrun -bench LU -class W -procs 8 -trips 50
//	npbrun -bench SP -grid 16 -procs 9 -trips 10
//
// Observability (see DESIGN.md §8): -trace-out writes a Perfetto-loadable
// trace with per-rank kernel and MPI-span tracks, -metrics-out a run
// manifest with the metric snapshot (render it with kcreport), and -pprof
// a CPU profile.
//
//	npbrun -bench BT -class S -procs 4 -trace-out bt.json -metrics-out bt-metrics.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/tables"
	"repro/internal/trace"
)

// normReporter is implemented by every benchmark state.
type normReporter interface {
	Norms() [5]float64
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "npbrun: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole process behind main. Every failure is a returned
// error; flags are checked before any sink opens, and the one deferred
// sink.Close writes the requested outputs on every path after that.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("npbrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The flags that name the configuration are query parameters, read
	// through tables.ParseQuery.
	fs.String("bench", "BT", "benchmark: BT, SP, LU or FT")
	fs.String("class", "S", "problem class: S, W, A or B")
	fs.Int("procs", 4, "processor (rank) count")
	fs.Int("trips", 0, "loop trip count (0 = scaled class default)")
	fs.Int("grid", 0, "grid override: use an n³ grid instead of the class size")
	var (
		net     = fs.Bool("net", false, "attach the IBM SP interconnect cost model")
		doTrace = fs.Bool("trace", false, "record per-kernel events; print profile and timeline")
	)
	var obsFlags obscli.Flags
	obsFlags.Register(fs)
	faultFlags := fault.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	inj, err := faultFlags.Build()
	if err != nil {
		return err
	}
	q, err := tables.ParseQuery(tables.FlagValues(fs))
	if err != nil {
		return err
	}
	prob, err := tables.PredictProblem(q)
	if err != nil {
		return err
	}
	// The world options go to RunOnce directly, so the workload is built
	// (and the rank count validated) before the sink they come from opens.
	w, err := tables.NewWorkload(q.Bench, q.Class, prob, q.Procs, nil)
	if err != nil {
		return err
	}

	sink, err := obscli.Open(obsFlags)
	if err != nil {
		return err
	}
	man := obs.NewManifest("npbrun")
	man.Benchmark = q.Bench
	man.Class = string(q.Class)
	man.Procs = q.Procs
	man.Trips = q.Trips
	if q.Grid > 0 || *net {
		man.Extra = map[string]string{}
		if q.Grid > 0 {
			man.Extra["grid"] = fmt.Sprint(q.Grid)
		}
		if *net {
			man.Extra["net"] = "ibm-sp"
		}
	}
	start := time.Now()
	defer func() {
		// A faulted or deadlocked run still leaves a structured report:
		// the same manifest, with the error in its health block.
		man.UnixSeconds = start.Unix()
		man.WallSeconds = time.Since(start).Seconds()
		if inj != nil {
			man.Health = inj.Health()
		}
		if err != nil {
			if man.Health == nil {
				man.Health = &obs.Health{}
			}
			man.Health.Errors = append(man.Health.Errors, err.Error())
		}
		err = errors.Join(err, sink.Close(man))
		if err != nil {
			return
		}
		if obsFlags.TraceOut != "" {
			fmt.Fprintf(stdout, "trace written to %s (load in ui.perfetto.dev)\n", obsFlags.TraceOut)
		}
		if obsFlags.MetricsOut != "" {
			fmt.Fprintf(stdout, "metrics written to %s (render with kcreport)\n", obsFlags.MetricsOut)
		}
	}()

	if *doTrace && sink.Trace == nil {
		// -trace prints the kernel views off the same trace -trace-out
		// exports; the measurement layer's stamps record a kernel span
		// around every RunKernel, so the factory needs no wrapping.
		sink.Trace = obs.NewTrace(nil)
	}
	var worldOpts []mpi.Option
	if *net {
		worldOpts = append(worldOpts, mpi.WithNetModel(mpi.IBMSPModel()))
	}
	worldOpts = append(worldOpts, sink.WorldOpts()...)
	if inj != nil {
		worldOpts = append(worldOpts, mpi.WithInjector(inj))
	}
	if wd := faultFlags.WatchdogTimeout(); wd > 0 {
		worldOpts = append(worldOpts, mpi.WithRecvTimeout(wd))
	}

	fmt.Fprintf(stdout, "%s class %s  grid %s  %d procs  %d loop trips\n", q.Bench, q.Class, prob, q.Procs, q.Trips)
	var norms [5]float64
	err = npb.RunOnce(w.Factory, w.Pre, w.Loop, q.Trips, w.Post, q.Procs, func(ks npb.KernelSet) {
		if nr, ok := ks.(normReporter); ok {
			norms = nr.Norms()
		}
	}, worldOpts...)
	if err != nil {
		if inj != nil {
			fmt.Fprintf(stderr, "fault schedule:\n%s", inj.ScheduleText())
		}
		return err
	}
	fmt.Fprintf(stdout, "completed in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Fprintln(stdout, "verification norms (rank-count invariant):")
	for c, v := range norms {
		fmt.Fprintf(stdout, "  component %d: %.12e\n", c, v)
	}
	if *doTrace {
		kernels := trace.KernelView(sink.Trace.Spans())
		fmt.Fprintf(stdout, "\nper-kernel profile:\n%s\n%s", kernels, kernels.Timeline(72))
	}
	return nil
}
