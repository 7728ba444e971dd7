// Command couple runs one kernel-coupling study: it measures every kernel
// of a NAS benchmark in isolation and every requested window chained, then
// prints the coupling values, composition coefficients and execution-time
// predictions next to the measured time.
//
//	couple -bench BT -class S -procs 4 -chains 2,5
//	couple -bench LU -class W -procs 8 -chains 3 -trips 20
//	couple -bench SP -grid 12 -procs 4 -chains 2   # custom tiny grid
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
	"repro/internal/prophesy"
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
	var (
		bench  = fs.String("bench", "BT", "benchmark: BT, SP, LU or FT")
		class  = fs.String("class", "S", "problem class: S, W, A or B")
		procs  = fs.Int("procs", 4, "processor (rank) count")
		chains = fs.String("chains", "2", "comma-separated coupling chain lengths")
		trips  = fs.Int("trips", 0, "loop trip count (0 = scaled class default)")
		blocks = fs.Int("blocks", 3, "timed blocks per measurement")
		passes = fs.Int("passes", 1, "window passes per block")
		grid   = fs.Int("grid", 0, "grid override: use an n³ grid instead of the class size")
		net    = fs.Bool("net", false, "attach the IBM SP interconnect cost model")
		saveDB = fs.String("save", "", "append this study's measurements to a coupling repository (JSON file)")
		reuse  = fs.String("reuse", "", "repository to reuse coupling values from: only isolated kernels are measured fresh")
		ref    = fs.String("ref", "", "reference configuration for -reuse as workload.class.procs (e.g. BT.W.4)")

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
	w, err := tables.NewWorkload(benchName, cls, prob, *procs, worldOpts)
	if err != nil {
		return err
	}

	q := predict.Query{
		Bench: benchName, Class: cls, Procs: *procs, Chains: chainLens,
		Trips: nTrips, Blocks: *blocks, Passes: *passes, Grid: *grid,
	}
	backendName := strings.ToLower(strings.TrimSpace(*backend))
	switch backendName {
	case "", "measured", "measured+analytic":
		// The measured path continues below; measured+analytic decorates
		// its study with the analytic comparison before rendering.
	default:
		return runBackend(ctx, stdout, backendName, *lattice, *cacheDir, *net, *parallel, *analyticBand, q)
	}

	if *reuse != "" {
		return runReuse(stdout, w, *reuse, *ref, cls, nTrips, chainLens, *blocks, *passes)
	}

	fmt.Fprintf(stdout, "study: %s  grid %s  trips=%d  chains=%v\n\n", w.WorkloadName, prob, nTrips, chainLens)
	var netModel *mpi.NetModel
	if *net {
		m := mpi.IBMSPModel()
		netModel = &m
	}
	opts := harness.Options{
		Blocks: *blocks, Passes: *passes, ActualRuns: 3,
		Metrics:     sink.Registry,
		Parallel:    *parallel,
		WorldDigest: tables.WorldDigest(prob, netModel),
		FaultDigest: faultFlags.Digest(),
	}
	if *cacheDir != "" {
		cache, err := plan.NewDirCache(*cacheDir)
		if err != nil {
			return err
		}
		defer cache.Close()
		opts.Cache = cache
	}
	if inj != nil {
		// Under fault injection the harness degrades instead of dying:
		// failed measurements are retried, then folded down the
		// degradation ladder.
		opts.MaxRetries = faultFlags.Retries
		opts.Degrade = true
	}
	eng := harness.Engine{Workload: w, Opts: opts}
	if *fromCache {
		// Pure re-analysis: every measurement must already be in the
		// cache; no world is spawned.
		study, err = eng.RunFromCache(nTrips, chainLens)
	} else {
		// The campaign trace rides the context the way a request trace
		// does, so -trace-out shows the plan/execute/assemble/analyze
		// stages and one measure span per world beside the rank tracks.
		study, err = eng.RunCtx(obs.ContextWithTrace(ctx, sink.Trace), nTrips, chainLens)
	}
	if err != nil {
		if inj != nil {
			fmt.Fprintf(stderr, "fault schedule:\n%s", inj.ScheduleText())
		}
		return fmt.Errorf("study failed: %w", err)
	}

	if *saveDB != "" {
		db, err := prophesy.OpenFile(*saveDB)
		if err != nil {
			return fmt.Errorf("open repository: %w", err)
		}
		key := prophesy.Key{Workload: benchName, Class: string(cls), Procs: *procs}
		prophesy.ImportStudy(db, key, study)
		if err := db.SaveFile(*saveDB); err != nil {
			return fmt.Errorf("save repository: %w", err)
		}
		fmt.Fprintf(stdout, "saved %d measurements for %s to %s\n\n", db.Len(), key, *saveDB)
	}

	if backendName == "measured+analytic" {
		cmp, err := analyticCompare(study, q, *analyticBand)
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
	if opts.Cache != nil || *parallel > 1 {
		fmt.Fprintf(stderr, "couple: cache hits=%d misses=%d planned=%d\n",
			study.Exec.CacheHits, study.Exec.Executed, study.Exec.Planned)
	}
	return nil
}

// runReuse is the experiment-reduction flow of the paper's future-work
// section: only the isolated kernels (and one actual run for comparison)
// are measured fresh; the window couplings come from the repository's
// reference configuration.
func runReuse(stdout io.Writer, w *harness.NPBWorkload, dbPath, refSpec string, cls npb.Class, trips int, chainLens []int, blocks, passes int) error {
	db, err := prophesy.OpenFile(dbPath)
	if err != nil {
		return fmt.Errorf("open repository: %w", err)
	}
	refKey := prophesy.Key{Workload: strings.SplitN(w.WorkloadName, ".", 2)[0], Class: string(cls), Procs: w.Procs}
	if refSpec != "" {
		parts := strings.Split(refSpec, ".")
		if len(parts) != 3 {
			return fmt.Errorf("bad -ref %q, want workload.class.procs", refSpec)
		}
		p, err := strconv.Atoi(parts[2])
		if err != nil {
			return fmt.Errorf("bad -ref procs: %w", err)
		}
		refKey = prophesy.Key{Workload: parts[0], Class: parts[1], Procs: p}
	}
	fmt.Fprintf(stdout, "reuse study: %s with couplings from %s (%s)\n\n", w.WorkloadName, refKey, dbPath)

	app := core.App{Name: w.WorkloadName, Pre: w.Pre, Loop: core.Ring(w.Loop), Post: w.Post, Trips: trips}
	opts := harness.Options{Blocks: blocks, Passes: passes}
	isolated := map[string]float64{}
	for _, k := range app.KernelsSorted() {
		v, err := w.MeasureWindow([]string{k}, opts)
		if err != nil {
			return fmt.Errorf("isolated %s: %w", k, err)
		}
		isolated[k] = v
	}
	actual, err := w.MeasureActual(trips, opts)
	if err != nil {
		return fmt.Errorf("actual run: %w", err)
	}

	pt := stats.NewTable("Predictions from reused couplings", "Predictor", "Seconds", "Relative Error")
	pt.AddRow("Actual", stats.Seconds(actual), "-")
	var sum float64
	for _, k := range app.Pre {
		sum += isolated[k]
	}
	for _, k := range app.Post {
		sum += isolated[k]
	}
	var loop float64
	for _, k := range app.Loop {
		loop += isolated[k]
	}
	sum += float64(trips) * loop
	pt.AddRow("Summation (fresh)", stats.Seconds(sum), stats.Percent(stats.RelativeError(sum, actual)))
	for _, L := range chainLens {
		pred, err := prophesy.PredictWithReusedCouplings(db, refKey, app, isolated, L)
		if err != nil {
			return fmt.Errorf("reuse L=%d: %w", L, err)
		}
		saved, _ := prophesy.MeasurementsSaved(app.Loop, L)
		pt.AddRow(fmt.Sprintf("Coupling: %d kernels (reused, %d windows saved)", L, saved),
			stats.Seconds(pred.Total), stats.Percent(stats.RelativeError(pred.Total, actual)))
	}
	fmt.Fprintln(stdout, pt.String())
	return nil
}

// runBackend answers the study question through a non-measured predictor
// backend: the same interface kcserved serves, driven from the command
// line. Cached and interpolated need a warmed -cache-dir; analytic needs
// nothing but the query's geometry.
func runBackend(ctx context.Context, stdout io.Writer, name, latticeSpec, cacheDir string, net bool, parallel int, bandFloor float64, q predict.Query) error {
	cfg := tables.BackendConfig{Parallel: parallel}
	if net {
		m := mpi.IBMSPModel()
		cfg.Net = &m
	}
	if cacheDir != "" {
		cache, err := plan.NewDirCache(cacheDir)
		if err != nil {
			return err
		}
		defer cache.Close()
		cfg.Cache = cache
	}
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
func analyticCompare(study *harness.Study, q predict.Query, bandFloor float64) ([]harness.AnalyticWindow, error) {
	ab := tables.NewAnalytic()
	if bandFloor > 0 {
		ab.BandFloor = bandFloor
	}
	bands, err := ab.WindowBands(q)
	if err != nil {
		return nil, err
	}
	byKey := make(map[string]predict.WindowBand, len(bands))
	for _, b := range bands {
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
