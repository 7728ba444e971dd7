// Command couple runs one kernel-coupling study: it measures every kernel
// of a NAS benchmark in isolation and every requested window chained, then
// prints the coupling values, composition coefficients and execution-time
// predictions next to the measured time.
//
//	couple -bench BT -class S -procs 4 -chains 2,5
//	couple -bench LU -class W -procs 8 -chains 3 -trips 20
//	couple -bench SP -grid 12 -procs 4 -chains 2   # custom tiny grid
//
// With -lattice the windows are not measured at all: only the isolated
// kernels and the application itself run, and every window's coupling
// value is borrowed from lattice configurations already in the -cache-dir
// through the §4.1 step model (a one-point lattice lends its own values)
// — the experiment reduction of the paper's future-work section.
//
//	couple -bench BT -grid 6 -chains 2,5 -cache-dir c              # measure the lattice
//	couple -bench BT -grid 8 -chains 2,5 -cache-dir c -lattice 'bench=BT&grid=6'
//
// Observability (see DESIGN.md §8): -trace-out writes a Perfetto-loadable
// trace of the campaign (harness measurement spans plus per-rank MPI
// spans), -metrics-out a run manifest with the metric snapshot and
// measurement provenance (render with kcreport), -pprof a CPU profile.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/obscli"
	"repro/internal/plan"
	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/tables"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "couple: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole process behind main. Every failure is a returned
// error, so the one deferred sink.Close writes the requested trace,
// manifest and profile on every path out.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("couple", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := tables.QueryProtocol(predict.Query{})
	var (
		bench  = fs.String("bench", "BT", "benchmark: BT, SP, LU or FT")
		class  = fs.String("class", "S", "problem class: S, W, A or B")
		procs  = fs.Int("procs", 4, "processor (rank) count")
		chains = fs.String("chains", "2", "comma-separated coupling chain lengths")
		trips  = fs.Int("trips", 0, "loop trip count (0 = scaled class default)")
		blocks = fs.Int("blocks", def.Blocks, "timed blocks per measurement")
		passes = fs.Int("passes", def.Passes, "window passes per block")
		grid   = fs.Int("grid", 0, "grid override: use an n³ grid instead of the class size")
		net    = fs.Bool("net", false, "attach the IBM SP interconnect cost model")

		parallel = fs.Int("parallel", 1, "measurement worker count (1 = sequential, preserves timing fidelity)")
		cacheDir = fs.String("cache-dir", "", "persist the content-addressed measurement cache in this directory")

		backend = fs.String("backend", "measured",
			"predictor backend: measured, cached, interpolated, analytic, or measured+analytic (measure, then compare against the analytic model)")
		lattice = fs.String("lattice", "",
			"lattice of configurations measured into -cache-dir to borrow coupling values from: ';'-separated query items without chains, e.g. \"bench=BT&grid=6;bench=BT&grid=8\"; the measured backend then measures only the isolated kernels and the application")
		analyticBand = fs.Float64("analytic-band", 0,
			"minimum relative half-width of the analytic confidence band (0 = model default)")
		retries = fs.Int("fault-retries", 2, "per-measurement retry budget before a window degrades")
	)
	var obsFlags obscli.Flags
	obsFlags.Register(fs)
	faultFlags := fault.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	backendName := strings.ToLower(strings.TrimSpace(*backend))
	if backendName == "" {
		backendName = "measured"
	}
	if err := refuseUnread(fs, backendName); err != nil {
		return err
	}
	inj, err := faultFlags.Build()
	if err != nil {
		return err
	}
	var latticeQs []predict.Query
	if *lattice != "" {
		if backendName == "measured" && *cacheDir == "" {
			return errors.New("-lattice needs -cache-dir: the lattice's measurements are read from it")
		}
		if latticeQs, err = tables.ParseLattice(*lattice); err != nil {
			return fmt.Errorf("-lattice: %w", err)
		}
	}

	var chainLens []int
	for _, s := range strings.Split(*chains, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad -chains value %q: %w", s, err)
		}
		chainLens = append(chainLens, n)
	}

	cls := npb.Class(strings.ToUpper(*class))
	benchName := strings.ToUpper(*bench)
	prob, err := tables.BenchProblem(benchName, cls)
	if err != nil {
		return err
	}
	prob = tables.GridProblem(benchName, prob, *grid)
	nTrips := *trips
	if nTrips <= 0 {
		nTrips = tables.DefaultTrips(cls)
	}

	sink, err := obscli.Open(obsFlags)
	if err != nil {
		return err
	}
	man := obs.NewManifest("couple")
	man.Benchmark = benchName
	man.Class = string(cls)
	man.Procs = *procs
	man.Trips = nTrips
	man.Extra = map[string]string{"chains": *chains}
	if *parallel > 1 {
		man.Extra["parallel"] = strconv.Itoa(*parallel)
	}
	if *cacheDir != "" {
		man.Extra["cache_dir"] = *cacheDir
	}
	start := time.Now()
	var study *harness.Study
	defer func() {
		// Even a failed run leaves a structured report: the error and the
		// fault schedule's effect in a manifest for kcreport.
		man.UnixSeconds = start.Unix()
		man.WallSeconds = time.Since(start).Seconds()
		if inj != nil {
			man.Health = inj.Health()
		}
		if err != nil || (study != nil && !study.Health.Clean()) {
			if man.Health == nil {
				man.Health = &obs.Health{}
			}
			if err != nil {
				man.Health.Errors = append(man.Health.Errors, err.Error())
			} else {
				study.Health.FillManifest(man.Health)
			}
		}
		err = errors.Join(err, sink.Close(man))
	}()

	// Without -cache-dir the study measures into a cache of its own.
	cfg := tables.BackendConfig{Cache: plan.NewCache(), Metrics: sink.Registry, Parallel: *parallel, Lattice: latticeQs}
	var worldOpts []mpi.Option
	if *net {
		m := mpi.IBMSPModel()
		cfg.Net = &m
		worldOpts = append(worldOpts, mpi.WithNetModel(m))
	}
	worldOpts = append(worldOpts, sink.WorldOpts()...)
	if inj != nil {
		worldOpts = append(worldOpts, mpi.WithInjector(inj))
	}
	if wd := faultFlags.WatchdogTimeout(); wd > 0 {
		worldOpts = append(worldOpts, mpi.WithRecvTimeout(wd))
	}
	if *cacheDir != "" {
		cache, err := plan.NewDirCache(*cacheDir)
		if err != nil {
			return err
		}
		defer cache.Close()
		cfg.Cache = cache
	}

	q := predict.Query{
		Bench: benchName, Class: cls, Procs: *procs, Chains: chainLens,
		Trips: nTrips, Blocks: *blocks, Passes: *passes, Grid: *grid,
	}
	eng, err := measuredEngine(cfg, q, worldOpts, faultFlags.Digest())
	if err != nil {
		return err
	}
	switch backendName {
	case "measured", "measured+analytic":
		// The measured path continues below; measured+analytic decorates
		// its study with the analytic comparison before rendering.
	default:
		return runBackend(ctx, stdout, backendName, *analyticBand, cfg, q)
	}

	if inj != nil {
		// Under fault injection the harness degrades instead of dying:
		// failed measurements are retried, then folded down the
		// degradation ladder.
		eng.Opts.MaxRetries = *retries
		eng.Opts.Degrade = true
	}
	// With -lattice the campaign has no windows: the lattice lends their
	// coupling values once the rest is measured. It is loaded first, so a
	// lattice that lends nothing is refused before any world runs.
	campaign := chainLens
	var lend func(*harness.Study) (*harness.Study, error)
	if latticeQs != nil {
		man.Extra["lattice"] = *lattice
		campaign = nil
		if lend, err = lender(ctx, cfg, q, *lattice, *chains, *cacheDir); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "study: %s  grid %s  trips=%d  chains=%v\n", eng.Workload.Name(), prob, nTrips, chainLens)
	if latticeQs != nil {
		fmt.Fprintf(stdout, "couplings: borrowed from lattice %s\n", strings.TrimSpace(*lattice))
	}
	fmt.Fprintln(stdout)

	// The campaign trace rides the context the way a request trace does,
	// so -trace-out shows the plan/execute/assemble/analyze stages and one
	// measure span per world beside the rank tracks.
	study, err = eng.RunCtx(obs.ContextWithTrace(ctx, sink.Trace), nTrips, campaign)
	if err != nil {
		if inj != nil {
			fmt.Fprintf(stderr, "fault schedule:\n%s", inj.ScheduleText())
		}
		return fmt.Errorf("study failed: %w", err)
	}

	if lend != nil {
		if study, err = lend(study); err != nil {
			return fmt.Errorf("-lattice %q: %w", *lattice, err)
		}
	}

	if backendName == "measured+analytic" {
		if study.AnalyticCmp, err = analyticCompare(ctx, study, q, *analyticBand); err != nil {
			return fmt.Errorf("analytic comparison: %w", err)
		}
	}

	// The full report: tables, predictions, and — only when the study
	// degraded — the degradation section.
	fmt.Fprint(stdout, harness.RenderStudy(study))

	if backendName == "measured+analytic" {
		total := len(study.AnalyticCmp)
		fmt.Fprintf(stdout, "analytic agreement: %d/%d windows in band\n", total-study.AnalyticDisagreements(), total)
	}

	// Cache statistics go to stderr so the study report on stdout stays
	// byte-identical whether or not the cache served it.
	if *cacheDir != "" || *parallel > 1 {
		fmt.Fprintf(stderr, "couple: cache hits=%d misses=%d planned=%d\n",
			study.Exec.CacheHits, study.Exec.Executed, study.Exec.Planned)
	}
	return nil
}

// lender loads the lattice through the interpolated backend's step model
// and returns the function that fills a study of q measured without
// windows with its borrowed coupling values. A lattice none of whose
// points is fully measured is harness.ErrCacheMiss, with the commands
// that would measure them.
func lender(ctx context.Context, cfg tables.BackendConfig, q predict.Query, spec, chainsFlag, cacheDir string) (func(*harness.Study) (*harness.Study, error), error) {
	lattice, err := tables.NewBackend(string(predict.ProvInterpolated), cfg)
	if err != nil {
		return nil, err
	}
	lend, err := lattice.(*predict.Interpolated).Borrow(ctx, q)
	if errors.Is(err, harness.ErrCacheMiss) {
		var warm strings.Builder
		for _, lq := range cfg.Lattice {
			fmt.Fprintf(&warm, "\n  couple -bench %s -class %s -procs %d -grid %d -trips %d -blocks %d -passes %d -chains %s -cache-dir %s",
				lq.Bench, lq.Class, lq.Procs, lq.Grid, lq.Trips, lq.Blocks, lq.Passes, chainsFlag, cacheDir)
			if cfg.Net != nil {
				warm.WriteString(" -net")
			}
		}
		return nil, fmt.Errorf("-lattice %q is not measured in -cache-dir %s: %w\nmeasure it first:%s", spec, cacheDir, err, warm.String())
	}
	if err != nil {
		return nil, fmt.Errorf("-lattice %q: %w", spec, err)
	}
	return lend, nil
}

// measuring are the backends that measure, the readers of every flag
// that shapes a measurement.
var measuring = []string{"measured", "measured+analytic"}

// readers names, for each flag only some backends read, the backends
// that do.
var readers = map[string][]string{
	"net":           {"measured", "measured+analytic", "cached", "interpolated"},
	"cache-dir":     {"measured", "measured+analytic", "cached", "interpolated"},
	"lattice":       {"measured", "interpolated"},
	"analytic-band": {"analytic", "measured+analytic"},
	"parallel":      measuring,
	"fault-spec":    measuring,
	"fault-seed":    measuring,
	"fault-retries": measuring,
	"watchdog":      measuring,
}

// refuseUnread is the error for the first flag, in lexical order, set on
// the command line that backend would not read, naming both flags, or nil.
func refuseUnread(fs *flag.FlagSet, backend string) (err error) {
	fs.Visit(func(f *flag.Flag) {
		if r, ok := readers[f.Name]; ok && err == nil && !slices.Contains(r, backend) {
			err = fmt.Errorf("-%s needs -backend %s, not -backend %s: no other backend reads it",
				f.Name, strings.Join(r, " or "), backend)
		}
	})
	return err
}

// measuredEngine is the engine couple's measured path runs: cfg's own
// Engine, whose protocol and job keys are the ones kcserved reads, with
// couple's world options (interconnect model, trace sink, fault injector,
// watchdog) on its workload and the fault configuration in its keys.
func measuredEngine(cfg tables.BackendConfig, q predict.Query, worldOpts []mpi.Option, faultDigest string) (harness.Engine, error) {
	eng, err := cfg.Engine(q)
	if err != nil {
		return harness.Engine{}, err
	}
	eng.Workload.(*harness.NPBWorkload).WorldOpts = worldOpts
	eng.Opts.FaultDigest = faultDigest
	return eng, nil
}

// runBackend answers the study question through a non-measured predictor
// backend: the same interface kcserved serves, driven from the command
// line. Cached and interpolated need a warmed -cache-dir; analytic needs
// nothing but the query's geometry.
func runBackend(ctx context.Context, stdout io.Writer, name string, bandFloor float64, cfg tables.BackendConfig, q predict.Query) error {
	b, err := tables.NewBackend(name, cfg)
	if err != nil {
		return err
	}
	if a, ok := b.(*predict.Analytic); ok && bandFloor > 0 {
		a.BandFloor = bandFloor
	}
	pr, err := b.Predict(ctx, q)
	if err != nil {
		return fmt.Errorf("backend %s: %w", name, err)
	}
	fmt.Fprintf(stdout, "backend: %s (provenance %s)\n", name, pr.Provenance)
	fmt.Fprintf(stdout, "prediction: %s in [%s, %s]\n\n",
		stats.Seconds(pr.Value), stats.Seconds(pr.Band.Lo), stats.Seconds(pr.Band.Hi))
	if pr.Study != nil {
		fmt.Fprint(stdout, harness.RenderStudy(pr.Study))
	}
	return nil
}

// analyticCompare builds the per-window measured-vs-analytic comparison
// for a measured study, which feeds the report's disagreement columns.
func analyticCompare(ctx context.Context, study *harness.Study, q predict.Query, bandFloor float64) ([]harness.AnalyticWindow, error) {
	ab := tables.NewAnalytic()
	if bandFloor > 0 {
		ab.BandFloor = bandFloor
	}
	pr, err := ab.Predict(ctx, q)
	if err != nil {
		return nil, err
	}
	byKey := make(map[string]predict.WindowBand, len(pr.Windows))
	for _, b := range pr.Windows {
		byKey[core.Key(b.Window)] = b
	}
	var cmp []harness.AnalyticWindow
	for _, L := range study.ChainLens() {
		for _, wc := range study.Details[L].Couplings {
			b, ok := byKey[wc.Key()]
			if !ok {
				continue
			}
			cmp = append(cmp, harness.AnalyticWindow{
				Key: wc.Key(), Measured: wc.C, Analytic: b.C, Lo: b.Lo, Hi: b.Hi,
			})
		}
	}
	return cmp, nil
}
