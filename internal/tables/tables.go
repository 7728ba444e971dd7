// Package tables is the experiment index of the reproduction: one entry
// per table of the paper's evaluation (plus the Section 4.1 cache-
// transition observation), then this repo's ablations and extensions,
// each mapping to the modules that implement it and runnable to a
// paper-style rendering. cmd/paper is a thin wrapper over this package.
package tables

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/harness"
	"repro/internal/memmodel"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/plan"
	"repro/internal/predict"
	"repro/internal/stats"
)

// Kind says what a table shows.
type Kind int

const (
	// DataSets is a class-size table (paper Tables 1, 5, 7).
	DataSets Kind = iota
	// CouplingValues tabulates window coupling values per processor
	// count (paper Tables 2a, 3a, 4a).
	CouplingValues
	// Predictions compares actual time, the summation baseline and the
	// coupling predictors (paper Tables 2b, 3b, 4b, 6a–c, 8a–c).
	Predictions
	// CacheTransitions is the Section 4.1 working-set sweep.
	CacheTransitions
)

// Experiment describes one reproducible table.
type Experiment struct {
	// ID is the paper's table number, e.g. "2a".
	ID string
	// Caption is the paper's caption, lightly abbreviated.
	Caption string
	// Bench is "BT", "SP", "LU" or "MEM".
	Bench string
	// Class is the NAS problem class (empty for MEM).
	Class npb.Class
	// Procs are the processor counts of the table's columns.
	Procs []int
	// ChainLens are the coupling chain lengths shown.
	ChainLens []int
	// Kind selects the rendering.
	Kind Kind

	// variant, when non-nil, runs the experiment in place of its Kind:
	// the ablations and extensions of ablations.go.
	variant func(Experiment, Scale) (*Result, error)
	// trimFrac is the block-aggregation trim handed to the harness
	// (zero = its default); only the trimming ablation varies it.
	trimFrac float64
}

// All returns every experiment: the paper's evaluation in paper order,
// then the ablations and extensions (DESIGN.md §5).
func All() []Experiment {
	sqProcs := []int{4, 9, 16, 25}
	luProcs := []int{4, 8, 16, 32}
	return []Experiment{
		// The coupling-value tables (Na) use the chain length the paper
		// shows; the prediction tables (Nb, 6x, 8x) additionally include
		// the full-ring length — it costs one extra window measurement
		// and exposes how accuracy grows with chain length (the trend
		// the paper's Section 4.1 summary calls out). Paired a/b tables
		// share one memoized measurement campaign.
		{ID: "1", Caption: "Data sets used with the NPB BT", Bench: "BT", Kind: DataSets},
		{ID: "2a", Caption: "Coupling values for BT two kernels with Class S", Bench: "BT", Class: npb.ClassS, Procs: []int{4, 9, 16}, ChainLens: []int{2, 5}, Kind: CouplingValues},
		{ID: "2b", Caption: "Comparison of execution times for BT with Class S", Bench: "BT", Class: npb.ClassS, Procs: []int{4, 9, 16}, ChainLens: []int{2, 5}, Kind: Predictions},
		{ID: "3a", Caption: "Coupling values for BT three kernels with Class W", Bench: "BT", Class: npb.ClassW, Procs: sqProcs, ChainLens: []int{3, 5}, Kind: CouplingValues},
		{ID: "3b", Caption: "Comparison of execution times for BT with Class W using three kernels", Bench: "BT", Class: npb.ClassW, Procs: sqProcs, ChainLens: []int{3, 5}, Kind: Predictions},
		{ID: "4a", Caption: "Coupling values for BT four kernels with Class A", Bench: "BT", Class: npb.ClassA, Procs: sqProcs, ChainLens: []int{4, 5}, Kind: CouplingValues},
		{ID: "4b", Caption: "Comparison of execution times for BT with Class A", Bench: "BT", Class: npb.ClassA, Procs: sqProcs, ChainLens: []int{4, 5}, Kind: Predictions},
		{ID: "5", Caption: "Data sets used with the NPB SP", Bench: "SP", Kind: DataSets},
		{ID: "6a", Caption: "Comparison of execution times for SP with Class W", Bench: "SP", Class: npb.ClassW, Procs: sqProcs, ChainLens: []int{4, 5, 6}, Kind: Predictions},
		{ID: "6b", Caption: "Comparison of execution times for SP with Class A", Bench: "SP", Class: npb.ClassA, Procs: sqProcs, ChainLens: []int{4, 5, 6}, Kind: Predictions},
		{ID: "6c", Caption: "Comparison of execution times for SP with Class B", Bench: "SP", Class: npb.ClassB, Procs: sqProcs, ChainLens: []int{4, 5, 6}, Kind: Predictions},
		{ID: "7", Caption: "Data sets used with the NPB LU", Bench: "LU", Kind: DataSets},
		{ID: "8a", Caption: "Comparison of execution times for LU with Class W", Bench: "LU", Class: npb.ClassW, Procs: luProcs, ChainLens: []int{3, 4}, Kind: Predictions},
		{ID: "8b", Caption: "Comparison of execution times for LU with Class A", Bench: "LU", Class: npb.ClassA, Procs: luProcs, ChainLens: []int{3, 4}, Kind: Predictions},
		{ID: "8c", Caption: "Comparison of execution times for LU with Class B", Bench: "LU", Class: npb.ClassB, Procs: luProcs, ChainLens: []int{3, 4}, Kind: Predictions},
		{ID: "4.1", Caption: "Coupling-value transitions across cache-capacity boundaries", Bench: "MEM", Kind: CacheTransitions},
		// Each ablation is one configuration (its first processor count);
		// the two BT rows share one memoized campaign.
		{ID: "ablation-chain", Caption: "Ablation: chain length vs prediction error", Bench: "BT", Class: npb.ClassW, Procs: []int{4}, ChainLens: []int{2, 3, 4, 5}, Kind: Predictions, variant: chainAblation},
		{ID: "ablation-weighting", Caption: "Ablation: coefficient weighting", Bench: "BT", Class: npb.ClassW, Procs: []int{4}, ChainLens: []int{2, 3, 4, 5}, Kind: Predictions, variant: weightingAblation},
		{ID: "ablation-net", Caption: "Ablation: interconnect cost model", Bench: "LU", Class: npb.ClassW, Procs: []int{4}, ChainLens: []int{3}, Kind: Predictions, variant: netAblation},
		{ID: "ablation-trim", Caption: "Ablation: block aggregation", Bench: "LU", Class: npb.ClassW, Procs: []int{4}, ChainLens: []int{3}, Kind: Predictions, variant: trimAblation},
		{ID: "ext-ft", Caption: "Extension: FT", Bench: "FT", Class: npb.ClassA, Procs: []int{4}, ChainLens: []int{2, 4}, Kind: Predictions, variant: ftExtension},
		{ID: "ext-shared", Caption: "Extension: disjoint vs shared working sets", Bench: "MEM", Kind: CacheTransitions, variant: sharedExtension},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Scale tunes how much measurement effort an experiment spends; the zero
// value picks defaults sized for a laptop-class host (see DefaultTrips).
type Scale struct {
	// Trips overrides the loop trip count (0 = class default, scaled
	// down from the paper's counts; the relative errors the tables
	// compare are nearly independent of it).
	Trips int
	// Blocks is timed blocks per window measurement (0 = 5, or 3 for
	// class B); the trimmed-median aggregation needs a few blocks to
	// reject GC and scheduler spikes.
	Blocks int
	// Passes is window passes per block (0 = 1).
	Passes int
	// ActualRuns is how many full-application runs the "Actual" row is
	// the median of (0 = 3, or 2 for class B).
	ActualRuns int
	// GridOverride, when positive, replaces the class grid with a tiny
	// n³ grid — used by tests and smoke runs.
	GridOverride int
	// Net, when non-nil, attaches an interconnect cost model.
	Net *mpi.NetModel
	// Parallel is the measurement executor's worker count (0/1 =
	// sequential, the timing-fidelity mode).
	Parallel int
	// CacheDir, when non-empty, persists the measurement cache there so
	// repeated campaigns reuse results across processes.
	CacheDir string
	// Backend, when non-empty, routes every study through the named
	// predictor backend (measured, cached, interpolated, analytic)
	// instead of the default measured path — the paper tables can be
	// regenerated per-backend to compare what each one would report.
	Backend string
	// Lattice seeds the interpolated backend's step models; ignored by
	// the other backends.
	Lattice []predict.Query
}

// DefaultTrips returns the scaled-down loop trip count used for a class
// when Scale.Trips is zero. The paper's full counts (60–400) multiply
// runtimes without changing relative errors; these defaults keep a full
// table under a few minutes on one core.
func DefaultTrips(class npb.Class) int {
	switch class {
	case npb.ClassS:
		return 60 // small enough to run the paper's real count
	case npb.ClassW:
		return 20
	case npb.ClassA:
		return 8
	case npb.ClassB:
		return 5
	default:
		return 5
	}
}

func (s Scale) blocksFor(class npb.Class) int {
	if s.Blocks > 0 {
		return s.Blocks
	}
	if class == npb.ClassB {
		return 3
	}
	return 5
}

func (s Scale) actualRunsFor(class npb.Class) int {
	if s.ActualRuns > 0 {
		return s.ActualRuns
	}
	if class == npb.ClassB {
		return 2
	}
	return 3
}

// ProcStudy is one processor count's study within a table.
type ProcStudy struct {
	Procs int
	Study *harness.Study
}

// Result is a rendered, runnable table.
type Result struct {
	Exp Experiment
	// TripsUsed is the loop trip count the studies ran with.
	TripsUsed int
	// Studies holds one study per processor count (empty for DataSets
	// and CacheTransitions).
	Studies []ProcStudy
	// Sweep holds the cache-transition series (CacheTransitions only).
	Sweep []memmodel.SweepPoint
	// Text is the paper-style rendering.
	Text string
}

// problem returns the experiment's NPB problem, honoring GridOverride.
func (e Experiment) problem(s Scale) (npb.Problem, error) {
	prob, err := BenchProblem(e.Bench, e.Class)
	if err != nil {
		return npb.Problem{}, err
	}
	return GridProblem(e.Bench, prob, s.GridOverride), nil
}

// workload builds the harness workload for one processor count.
func (e Experiment) workload(s Scale, procs int) (harness.Workload, error) {
	prob, err := e.problem(s)
	if err != nil {
		return nil, err
	}
	var opts []mpi.Option
	if s.Net != nil {
		opts = append(opts, mpi.WithNetModel(*s.Net))
	}
	return NewWorkload(e.Bench, e.Class, prob, procs, opts)
}

// jobCache is the process-wide content-addressed measurement cache: it
// dedupes at the job level, so paired tables (e.g. 2a and 2b), chain
// lengths sharing windows, and repeated benchmark invocations reuse
// individual measurements instead of whole studies.
var jobCache = plan.NewCache()

// dirCaches memoizes persistent caches by directory so every study in a
// campaign shares one in-memory view of the same cache dir.
var dirCaches sync.Map // string -> *plan.Cache

func (s Scale) cache() (*plan.Cache, error) {
	if s.CacheDir == "" {
		return jobCache, nil
	}
	if c, ok := dirCaches.Load(s.CacheDir); ok {
		return c.(*plan.Cache), nil
	}
	c, err := plan.NewDirCache(s.CacheDir)
	if err != nil {
		return nil, err
	}
	actual, loaded := dirCaches.LoadOrStore(s.CacheDir, c)
	if loaded {
		c.Close()
	}
	return actual.(*plan.Cache), nil
}

// CloseDirCaches closes and forgets every persistent cache a campaign
// opened through Scale.CacheDir; the next study of a directory reopens it.
// For the end of a process's run, once its studies are done.
func CloseDirCaches() {
	dirCaches.Range(func(dir, c any) bool {
		dirCaches.Delete(dir)
		c.(*plan.Cache).Close()
		return true
	})
}

// WorldDigest captures world configuration that changes measured values
// without changing the workload name: the problem dimensions (a grid
// override shrinks them silently) and the interconnect model. Every
// binary that feeds the measurement cache must use this one scheme, or a
// shared -cache-dir would split into per-binary namespaces.
func WorldDigest(prob npb.Problem, net *mpi.NetModel) string {
	d := "grid=" + prob.String()
	if net != nil {
		d += fmt.Sprintf(";net=%s/%g", net.Latency, net.Bandwidth)
	}
	return d
}

func (e Experiment) studyFor(s Scale, procs, trips int) (*harness.Study, error) {
	if s.Backend != "" && s.Backend != string(predict.ProvMeasured) {
		return e.backendStudy(s, procs, trips)
	}
	w, err := e.workload(s, procs)
	if err != nil {
		return nil, err
	}
	prob, err := e.problem(s)
	if err != nil {
		return nil, err
	}
	cache, err := s.cache()
	if err != nil {
		return nil, err
	}
	eng := harness.Engine{Workload: w, Opts: harness.Options{
		Blocks:      s.blocksFor(e.Class),
		Passes:      s.Passes,
		ActualRuns:  s.actualRunsFor(e.Class),
		Parallel:    s.Parallel,
		TrimFrac:    e.trimFrac,
		Cache:       cache,
		WorldDigest: WorldDigest(prob, s.Net),
	}}
	return eng.Run(trips, e.ChainLens)
}

// backendStudy answers one processor count's study through the predictor
// interface instead of the measured engine path.
func (e Experiment) backendStudy(s Scale, procs, trips int) (*harness.Study, error) {
	cache, err := s.cache()
	if err != nil {
		return nil, err
	}
	b, err := NewBackend(s.Backend, BackendConfig{
		Cache: cache, Net: s.Net, Parallel: s.Parallel, Lattice: s.Lattice,
	})
	if err != nil {
		return nil, err
	}
	q := predict.Query{
		Bench: e.Bench, Class: e.Class, Procs: procs,
		Chains: e.ChainLens, Trips: trips,
		Blocks: s.blocksFor(e.Class), Passes: s.Passes, Grid: s.GridOverride,
	}
	pr, err := b.Predict(context.Background(), q)
	if err != nil {
		return nil, err
	}
	return pr.Study, nil
}

// ResetCache clears the in-memory measurement cache (tests and benchmarks
// use it to force re-measurement; persistent cache dirs are untouched).
func ResetCache() {
	jobCache.Reset()
	dirCaches.Range(func(k, v any) bool {
		v.(*plan.Cache).Reset()
		return true
	})
}

// Run executes the experiment at the given scale and renders its table.
func (e Experiment) Run(s Scale) (*Result, error) {
	if e.variant != nil {
		return e.variant(e, s)
	}
	switch e.Kind {
	case DataSets:
		return e.runDataSets()
	case CouplingValues, Predictions:
		return e.runStudies(s)
	case CacheTransitions:
		return e.runCacheSweep(s)
	}
	return nil, fmt.Errorf("tables: unknown experiment kind %d", e.Kind)
}

func (e Experiment) runDataSets() (*Result, error) {
	classes := []npb.Class{npb.ClassS, npb.ClassW, npb.ClassA, npb.ClassB}
	shown := map[string][]npb.Class{
		"BT": {npb.ClassS, npb.ClassW, npb.ClassA},
		"SP": {npb.ClassW, npb.ClassA, npb.ClassB},
		"LU": {npb.ClassW, npb.ClassA, npb.ClassB},
	}[e.Bench]
	if shown == nil {
		shown = classes
	}
	tb := stats.NewTable(fmt.Sprintf("Table %s: %s", e.ID, e.Caption), e.Bench, "Data Set Size", "Loop Trips (paper)")
	for _, c := range shown {
		var p npb.Problem
		var err error
		switch e.Bench {
		case "BT":
			p, err = npb.BTProblem(c)
		case "SP":
			p, err = npb.SPProblem(c)
		case "LU":
			p, err = npb.LUProblem(c)
		}
		if err != nil {
			return nil, err
		}
		tb.AddRow(string(c), p.String(), fmt.Sprintf("%d", p.Trips))
	}
	return &Result{Exp: e, Text: tb.String()}, nil
}

// tripsAt is the loop trip count the experiment runs with at a scale.
func (e Experiment) tripsAt(s Scale) int {
	if s.Trips > 0 {
		return s.Trips
	}
	return DefaultTrips(e.Class)
}

func (e Experiment) runStudies(s Scale) (*Result, error) {
	trips := e.tripsAt(s)
	res := &Result{Exp: e, TripsUsed: trips}
	for _, procs := range e.Procs {
		study, err := e.studyFor(s, procs, trips)
		if err != nil {
			return nil, fmt.Errorf("tables: table %s procs=%d: %w", e.ID, procs, err)
		}
		res.Studies = append(res.Studies, ProcStudy{Procs: procs, Study: study})
	}
	if e.Kind == CouplingValues {
		res.Text = renderCouplings(e, res)
	} else {
		res.Text = renderPredictions(e, res)
	}
	return res, nil
}

func procHeader(procs []int) []string {
	h := make([]string, len(procs))
	for i, p := range procs {
		h[i] = fmt.Sprintf("%d procs", p)
	}
	return h
}

func prettyWindow(window []string) string {
	parts := make([]string, len(window))
	for i, w := range window {
		parts[i] = prettyKernel(w)
	}
	return strings.Join(parts, ", ")
}

// prettyKernel renders KERNEL_NAME the way the paper's tables do
// (Copy_Faces, X_Solve, ...).
func prettyKernel(name string) string {
	parts := strings.Split(strings.ToLower(name), "_")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + p[1:]
	}
	return strings.Join(parts, "_")
}

func renderCouplings(e Experiment, res *Result) string {
	L := e.ChainLens[0]
	header := append([]string{chainLabel(L)}, procHeader(e.Procs)...)
	tb := stats.NewTable(fmt.Sprintf("Table %s: %s (trips=%d)", e.ID, e.Caption, res.TripsUsed), header...)
	if len(res.Studies) == 0 {
		return tb.String()
	}
	// Rows follow the first study's window order (ring order).
	first := res.Studies[0].Study.Details[L]
	for wi, wc := range first.Couplings {
		row := []string{prettyWindow(wc.Window)}
		for _, ps := range res.Studies {
			c := ps.Study.Details[L].Couplings[wi].C
			row = append(row, fmt.Sprintf("%.4f", c))
		}
		tb.AddRow(row...)
	}
	return tb.String()
}

func chainLabel(L int) string {
	switch L {
	case 2:
		return "Kernel Pair"
	default:
		return fmt.Sprintf("%d Kernels", L)
	}
}

func renderPredictions(e Experiment, res *Result) string {
	header := append([]string{"Execution Time in Seconds (% Relative Error)"}, procHeader(e.Procs)...)
	tb := stats.NewTable(fmt.Sprintf("Table %s: %s (trips=%d)", e.ID, e.Caption, res.TripsUsed), header...)

	actualRow := []string{"Actual"}
	for _, ps := range res.Studies {
		actualRow = append(actualRow, stats.Seconds(ps.Study.Actual))
	}
	tb.AddRow(actualRow...)

	sumRow := []string{"Summation"}
	for _, ps := range res.Studies {
		p := ps.Study.Summation
		sumRow = append(sumRow, fmt.Sprintf("%s (%s)", stats.Seconds(p.Predicted), stats.Percent(p.RelErr)))
	}
	tb.AddRow(sumRow...)

	for _, L := range e.ChainLens {
		row := []string{fmt.Sprintf("Coupling: %d kernels", L)}
		for _, ps := range res.Studies {
			p := ps.Study.Couplings[L]
			row = append(row, fmt.Sprintf("%s (%s)", stats.Seconds(p.Predicted), stats.Percent(p.RelErr)))
		}
		tb.AddRow(row...)
	}
	return tb.String()
}

// CacheSweepSizes is the default working-set axis of the Section 4.1
// experiment: 16 KiB per kernel up to 64 MiB, crossing typical L1/L2/L3
// boundaries.
func CacheSweepSizes() []int {
	return memmodel.GeometricSizes(16<<10, 64<<20, 13)
}

// sweepAxis is the Section 4.1 sweep's working-set axis, timed blocks
// per point and streaming volume at a scale.
func sweepAxis(s Scale) (sizes []int, blocks, minBytes int) {
	sizes, minBytes = CacheSweepSizes(), 48<<20
	blocks = s.Blocks
	if blocks <= 0 {
		blocks = 3
	}
	if s.GridOverride > 0 {
		// Smoke mode: a tiny axis with minimal streaming volume.
		sizes = memmodel.GeometricSizes(8<<10, 128<<10, 4)
		minBytes = 1 << 20
	}
	return sizes, blocks, minBytes
}

func (e Experiment) runCacheSweep(s Scale) (*Result, error) {
	points, err := memmodel.Sweep(sweepAxis(s))
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable(fmt.Sprintf("Section 4.1: %s", e.Caption), "Working Set / Kernel", "Pair Coupling C_AB")
	for _, p := range points {
		tb.AddRow(fmtBytes(p.Bytes), fmt.Sprintf("%.4f", p.C))
	}
	trans := memmodel.Transitions(points, 0.08)
	text := tb.String() + fmt.Sprintf("transitions (|ΔC| > 0.08): %d\n", len(trans))
	return &Result{Exp: e, Sweep: points, Text: text}, nil
}

func fmtBytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
