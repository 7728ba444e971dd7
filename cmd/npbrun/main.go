// Command npbrun executes one of the reimplemented NAS benchmarks (BT, SP
// or LU) directly: it runs the full application — one-shot pre-kernels,
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
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/bt"
	"repro/internal/npb/ft"
	"repro/internal/npb/lu"
	"repro/internal/npb/sp"
	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/tables"
	"repro/internal/trace"
)

// normReporter is implemented by every benchmark state.
type normReporter interface {
	Norms() [5]float64
}

func main() {
	var (
		bench   = flag.String("bench", "BT", "benchmark: BT, SP, LU or FT")
		class   = flag.String("class", "S", "problem class: S, W, A or B")
		procs   = flag.Int("procs", 4, "processor (rank) count")
		trips   = flag.Int("trips", 0, "loop trip count (0 = scaled class default)")
		grid    = flag.Int("grid", 0, "grid override: use an n³ grid instead of the class size")
		net     = flag.Bool("net", false, "attach the IBM SP interconnect cost model")
		doTrace = flag.Bool("trace", false, "record per-kernel events; print profile and timeline")

		repeat   = flag.Int("repeat", 1, "run the full application this many times and report the median")
		parallel = flag.Int("parallel", 1, "worker count for -repeat runs (each run is its own world)")
	)
	var obsFlags obscli.Flags
	obsFlags.Register(nil)
	faultFlags := fault.Register(flag.CommandLine)
	flag.Parse()

	inj, err := faultFlags.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "npbrun: %v\n", err)
		os.Exit(1)
	}

	cls := npb.Class(strings.ToUpper(*class))
	var prob npb.Problem
	var factory npb.Factory
	var pre, loop, post []string
	switch strings.ToUpper(*bench) {
	case "BT":
		prob, err = npb.BTProblem(cls)
		if err == nil {
			if *grid > 0 {
				prob = npb.TinyProblem(*grid, prob.Trips)
			}
			factory, err = bt.Factory(bt.Config{Problem: prob, Procs: *procs})
		}
		pre, loop, post = bt.KernelNames()
	case "SP":
		prob, err = npb.SPProblem(cls)
		if err == nil {
			if *grid > 0 {
				prob = npb.TinyProblem(*grid, prob.Trips)
			}
			factory, err = sp.Factory(sp.Config{Problem: prob, Procs: *procs})
		}
		pre, loop, post = sp.KernelNames()
	case "LU":
		prob, err = npb.LUProblem(cls)
		if err == nil {
			if *grid > 0 {
				prob = npb.TinyProblem(*grid, prob.Trips)
			}
			factory, err = lu.Factory(lu.Config{Problem: prob, Procs: *procs})
		}
		pre, loop, post = lu.KernelNames()
	case "FT":
		var ftCfg ft.Config
		ftCfg, err = ft.ClassProblem(cls)
		if err == nil {
			if *grid > 0 {
				ftCfg.N = *grid
			}
			ftCfg.Procs = *procs
			prob = npb.Problem{Class: cls, N1: ftCfg.N, N2: ftCfg.N, N3: 1, Trips: 100}
			factory, err = ft.Factory(ftCfg)
		}
		pre, loop, post = ft.KernelNames()
	default:
		err = fmt.Errorf("unknown benchmark %q", *bench)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "npbrun: %v\n", err)
		os.Exit(1)
	}

	nTrips := *trips
	if nTrips <= 0 {
		nTrips = tables.DefaultTrips(cls)
	}
	var worldOpts []mpi.Option
	if *net {
		worldOpts = append(worldOpts, mpi.WithNetModel(mpi.IBMSPModel()))
	}

	sink, err := obscli.Open(obsFlags)
	if err != nil {
		fmt.Fprintf(os.Stderr, "npbrun: %v\n", err)
		os.Exit(1)
	}
	if *doTrace && sink.Trace == nil {
		// -trace prints the kernel views off the same trace -trace-out
		// exports; the observer records a kernel span around every
		// RunKernel, so the factory needs no wrapping.
		sink.Trace = obs.NewTrace(nil)
	}
	worldOpts = append(worldOpts, sink.WorldOpts()...)
	if inj != nil {
		worldOpts = append(worldOpts, mpi.WithInjector(inj))
	}
	if wd := faultFlags.WatchdogTimeout(); wd > 0 {
		worldOpts = append(worldOpts, mpi.WithRecvTimeout(wd))
	}

	if *repeat > 1 && sink.Trace != nil {
		fmt.Fprintln(os.Stderr, "npbrun: -trace/-trace-out need a single run; drop them or -repeat")
		os.Exit(2)
	}

	fmt.Printf("%s class %s  grid %s  %d procs  %d loop trips\n",
		strings.ToUpper(*bench), cls, prob, *procs, nTrips)
	start := time.Now()
	var norms [5]float64
	runApp := func(out *[5]float64) error {
		return npb.RunOnce(factory, pre, loop, nTrips, post, *procs, func(ks npb.KernelSet) {
			if nr, ok := ks.(normReporter); ok {
				*out = nr.Norms()
			}
		}, worldOpts...)
	}
	if *repeat > 1 {
		// Repeated-run campaign through the measurement scheduler: each
		// run is an independent world, so runs can execute concurrently.
		in := plan.Inputs{Workload: strings.ToUpper(*bench) + "." + string(cls), Procs: *procs, Trips: nTrips, ActualRuns: *repeat}
		jobs := make([]plan.Job, *repeat)
		for r := range jobs {
			jobs[r] = plan.ActualJob(in, r)
		}
		allNorms := make([][5]float64, *repeat)
		outcomes := plan.Executor{Parallel: *parallel}.Run(jobs, func(i int, j plan.Job) (plan.Result, error) {
			runStart := time.Now()
			if err := runApp(&allNorms[i]); err != nil {
				return plan.Result{}, err
			}
			return plan.Result{Seconds: time.Since(runStart).Seconds()}, nil
		})
		times := make([]float64, 0, *repeat)
		for _, out := range outcomes {
			if out.Err != nil {
				err = out.Err
				break
			}
			times = append(times, out.Result.Seconds)
		}
		if err == nil {
			norms = allNorms[0]
			for i := 1; i < *repeat; i++ {
				if allNorms[i] != norms {
					err = fmt.Errorf("run %d norms diverge from run 0 — the benchmark is not deterministic", i)
					break
				}
			}
			for r, s := range times {
				fmt.Printf("run %d: %v\n", r, time.Duration(s*float64(time.Second)).Round(time.Millisecond))
			}
			fmt.Printf("median of %d runs: %v  (parallel=%d)\n",
				*repeat, time.Duration(stats.Median(times)*float64(time.Second)).Round(time.Millisecond), *parallel)
		}
	} else {
		err = runApp(&norms)
	}
	if err != nil {
		// A faulted or deadlocked run still exits with a structured
		// report (and a manifest when -metrics-out was asked for), never
		// a panic or a hang.
		man := obs.NewManifest("npbrun")
		man.Benchmark = strings.ToUpper(*bench)
		man.Class = string(cls)
		man.Procs = *procs
		man.Trips = nTrips
		man.UnixSeconds = start.Unix()
		man.WallSeconds = time.Since(start).Seconds()
		if inj != nil {
			man.Health = inj.Health()
		} else {
			man.Health = &obs.Health{}
		}
		man.Health.Errors = append(man.Health.Errors, err.Error())
		if cerr := sink.Close(man); cerr != nil {
			fmt.Fprintf(os.Stderr, "npbrun: %v\n", cerr)
		}
		if inj != nil {
			fmt.Fprintf(os.Stderr, "fault schedule:\n%s", inj.ScheduleText())
		}
		fmt.Fprintf(os.Stderr, "npbrun: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	fmt.Printf("completed in %v\n", elapsed.Round(time.Millisecond))
	fmt.Println("verification norms (rank-count invariant):")
	for c, v := range norms {
		fmt.Printf("  component %d: %.12e\n", c, v)
	}
	if *doTrace {
		kernels := trace.KernelView(sink.Trace.Spans())
		fmt.Printf("\nper-kernel profile:\n%s\n%s", kernels, kernels.Timeline(72))
	}

	man := obs.NewManifest("npbrun")
	man.Benchmark = strings.ToUpper(*bench)
	man.Class = string(cls)
	man.Procs = *procs
	man.Trips = nTrips
	man.UnixSeconds = start.Unix()
	man.WallSeconds = elapsed.Seconds()
	if *grid > 0 || *net {
		man.Extra = map[string]string{}
		if *grid > 0 {
			man.Extra["grid"] = fmt.Sprint(*grid)
		}
		if *net {
			man.Extra["net"] = "ibm-sp"
		}
	}
	if inj != nil {
		man.Health = inj.Health()
	}
	if err := sink.Close(man); err != nil {
		fmt.Fprintf(os.Stderr, "npbrun: %v\n", err)
		os.Exit(1)
	}
	if obsFlags.TraceOut != "" {
		fmt.Printf("trace written to %s (load in ui.perfetto.dev)\n", obsFlags.TraceOut)
	}
	if obsFlags.MetricsOut != "" {
		fmt.Printf("metrics written to %s (render with kcreport)\n", obsFlags.MetricsOut)
	}
}
