// Command couple runs one kernel-coupling study: it measures every kernel
// of a NAS benchmark in isolation and every requested window chained, then
// prints the coupling values, composition coefficients and execution-time
// predictions next to the measured time.
//
//	couple -bench BT -class S -procs 4 -chains 2,5
//	couple -bench LU -class W -procs 8 -chains 3 -trips 20
//	couple -bench SP -grid 12 -procs 4 -chains 2   # custom tiny grid
//
// With -ref the windows are not measured at all: only the isolated kernels
// and the application itself run, and the coupling values come from a
// reference configuration already in the -cache-dir — the experiment
// reduction of the paper's future-work section.
//
//	couple -bench BT -grid 6 -chains 2,5 -cache-dir c              # measure the reference
//	couple -bench BT -grid 8 -chains 2,5 -cache-dir c -ref 'bench=BT&grid=6'
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
	"net/url"
	"os"
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
		ref    = fs.String("ref", "",
			"reuse the coupling values of a reference configuration, one -lattice item (e.g. \"bench=BT&grid=6\") already measured into -cache-dir at these -chains; only the isolated kernels and the application are measured")

		parallel  = fs.Int("parallel", 1, "measurement worker count (1 = sequential, preserves timing fidelity)")
		cacheDir  = fs.String("cache-dir", "", "persist the content-addressed measurement cache in this directory")
		fromCache = fs.Bool("from-cache", false, "re-analyze from the -cache-dir cache without running any world")

		backend = fs.String("backend", "measured",
			"predictor backend: measured, cached, interpolated, analytic, or measured+analytic (measure, then compare against the analytic model)")
		lattice = fs.String("lattice", "",
			"interpolation lattice: ';'-separated query items, e.g. \"bench=BT&grid=6;bench=BT&grid=8\"")
		analyticBand = fs.Float64("analytic-band", 0,
			"minimum relative half-width of the analytic confidence band (0 = model default)")
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
	if *fromCache && *cacheDir == "" {
		return errors.New("-from-cache needs -cache-dir")
	}
	backendName := strings.ToLower(strings.TrimSpace(*backend))
	if *ref != "" {
		switch {
		case *cacheDir == "":
			return errors.New("-ref needs -cache-dir: the reference's measurements are read from it")
		case *fromCache:
			return errors.New("-ref and -from-cache exclude each other: -ref measures the isolated kernels, -from-cache measures nothing")
		case backendName != "" && backendName != "measured":
			return fmt.Errorf("-ref needs -backend measured, not -backend %s: it measures the isolated kernels", backendName)
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
	if *fromCache {
		man.Extra["from_cache"] = "true"
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
	cfg := tables.BackendConfig{Cache: plan.NewCache(), Parallel: *parallel}
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
	case "", "measured", "measured+analytic":
		// The measured path continues below; measured+analytic decorates
		// its study with the analytic comparison before rendering.
	default:
		return runBackend(ctx, stdout, backendName, *lattice, *analyticBand, cfg, q)
	}

	cfg.Metrics = sink.Registry
	eng.Opts.Metrics = sink.Registry
	if inj != nil {
		// Under fault injection the harness degrades instead of dying:
		// failed measurements are retried, then folded down the
		// degradation ladder.
		eng.Opts.MaxRetries = faultFlags.Retries
		eng.Opts.Degrade = true
	}
	// With -ref the campaign has no windows: the reference, loaded before
	// anything is measured so an unwarmed one fails at once, supplies their
	// coupling values.
	var refStudy *harness.Study
	campaign := chainLens
	if *ref != "" {
		if refStudy, err = reference(ctx, cfg, *ref, *chains, chainLens, *cacheDir); err != nil {
			return err
		}
		man.Extra["ref"] = *ref
		campaign = nil
	}
	fmt.Fprintf(stdout, "study: %s  grid %s  trips=%d  chains=%v\n", eng.Workload.Name(), prob, nTrips, chainLens)
	if refStudy != nil {
		fmt.Fprintf(stdout, "couplings: reused from %s\n", strings.TrimSpace(*ref))
	}
	fmt.Fprintln(stdout)

	if *fromCache {
		// Pure re-analysis: every measurement must already be in the
		// cache; no world is spawned.
		study, err = eng.RunFromCache(nTrips, chainLens)
	} else {
		// The campaign trace rides the context the way a request trace
		// does, so -trace-out shows the plan/execute/assemble/analyze
		// stages and one measure span per world beside the rank tracks.
		study, err = eng.RunCtx(obs.ContextWithTrace(ctx, sink.Trace), nTrips, campaign)
	}
	if err != nil {
		if inj != nil {
			fmt.Fprintf(stderr, "fault schedule:\n%s", inj.ScheduleText())
		}
		return fmt.Errorf("study failed: %w", err)
	}

	if refStudy != nil {
		if study, err = predict.Reuse(study, refStudy, chainLens); err != nil {
			return err
		}
	}

	if backendName == "measured+analytic" {
		cmp, err := analyticCompare(ctx, study, q, *analyticBand)
		if err != nil {
			return fmt.Errorf("analytic comparison: %w", err)
		}
		// A from-cache study is the cache's own shared copy (see
		// harness.Engine.RunFromCacheCtx): annotate a copy of it.
		annotated := *study
		annotated.AnalyticCmp = cmp
		study = &annotated
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

// reference loads the study whose coupling values -ref reuses from the
// cache: one -lattice item, read at this run's chain lengths through the
// cached backend's own runner. A reference that is not fully measured is
// harness.ErrCacheMiss, with the command that would measure it.
func reference(ctx context.Context, cfg tables.BackendConfig, spec, chainsFlag string, chains []int, cacheDir string) (*harness.Study, error) {
	item := strings.TrimSpace(spec)
	if item == "" || strings.Contains(item, ";") {
		return nil, fmt.Errorf("-ref takes exactly one -lattice item, got %q", spec)
	}
	v, err := url.ParseQuery(item)
	if err != nil {
		return nil, fmt.Errorf("-ref %q: %w", spec, err)
	}
	if v.Has("chains") {
		return nil, fmt.Errorf("-ref %q names chains, and -chains already does: the reference is read at this run's chain lengths", spec)
	}
	rq, err := tables.ParseQuery(v)
	if err != nil {
		return nil, fmt.Errorf("-ref %q: %w", spec, err)
	}
	rq.Chains = chains
	st, err := cfg.CacheRunner()(ctx, rq)
	if errors.Is(err, harness.ErrCacheMiss) {
		warm := fmt.Sprintf("couple -bench %s -class %s -procs %d -grid %d -trips %d -blocks %d -passes %d -chains %s -cache-dir %s",
			rq.Bench, rq.Class, rq.Procs, rq.Grid, rq.Trips, rq.Blocks, rq.Passes, chainsFlag, cacheDir)
		if cfg.Net != nil {
			warm += " -net"
		}
		return nil, fmt.Errorf("-ref %q is not measured in -cache-dir %s: %w\nmeasure it first: %s", spec, cacheDir, err, warm)
	}
	if err != nil {
		return nil, fmt.Errorf("-ref %q: %w", spec, err)
	}
	return st, nil
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
func runBackend(ctx context.Context, stdout io.Writer, name, latticeSpec string, bandFloor float64, cfg tables.BackendConfig, q predict.Query) error {
	if latticeSpec != "" {
		l, err := tables.ParseLattice(latticeSpec)
		if err != nil {
			return err
		}
		cfg.Lattice = l
	}
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
