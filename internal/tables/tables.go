// Package tables is the experiment index of the reproduction: one entry
// per table of the paper's evaluation (plus the Section 4.1 cache-
// transition observation), then this repo's ablations and extensions,
// each mapping to the modules that implement it and runnable to a
// paper-style rendering. cmd/paper is a thin wrapper over this package.
package tables

import (
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/memmodel"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/plan"
	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/timing"
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
	// Bench is "BT", "SP", "LU", "FT" or "MEM".
	Bench string
	// Class is the NAS problem class (empty for MEM).
	Class npb.Class
	// Procs are the processor counts of the table's columns.
	Procs []int
	// ChainLens are the coupling chain lengths shown.
	ChainLens []int
	// Kind selects the rendering.
	Kind Kind

	// classes are the rows of a DataSets table: the classes the paper's
	// table shows.
	classes []npb.Class
	// variant, when non-nil, runs the experiment in place of its Kind:
	// the ablations and extensions of ablations.go.
	variant func(Experiment, Scale) (*Result, error)
	// trim is the requested block-aggregation trim (timing.Protocol.Trim);
	// only the trimming ablation varies it.
	trim float64
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
		{ID: "1", Caption: "Data sets used with the NPB BT", Bench: "BT", Kind: DataSets, classes: []npb.Class{npb.ClassS, npb.ClassW, npb.ClassA}},
		{ID: "2a", Caption: "Coupling values for BT two kernels with Class S", Bench: "BT", Class: npb.ClassS, Procs: []int{4, 9, 16}, ChainLens: []int{2, 5}, Kind: CouplingValues},
		{ID: "2b", Caption: "Comparison of execution times for BT with Class S", Bench: "BT", Class: npb.ClassS, Procs: []int{4, 9, 16}, ChainLens: []int{2, 5}, Kind: Predictions},
		{ID: "3a", Caption: "Coupling values for BT three kernels with Class W", Bench: "BT", Class: npb.ClassW, Procs: sqProcs, ChainLens: []int{3, 5}, Kind: CouplingValues},
		{ID: "3b", Caption: "Comparison of execution times for BT with Class W using three kernels", Bench: "BT", Class: npb.ClassW, Procs: sqProcs, ChainLens: []int{3, 5}, Kind: Predictions},
		{ID: "4a", Caption: "Coupling values for BT four kernels with Class A", Bench: "BT", Class: npb.ClassA, Procs: sqProcs, ChainLens: []int{4, 5}, Kind: CouplingValues},
		{ID: "4b", Caption: "Comparison of execution times for BT with Class A", Bench: "BT", Class: npb.ClassA, Procs: sqProcs, ChainLens: []int{4, 5}, Kind: Predictions},
		{ID: "5", Caption: "Data sets used with the NPB SP", Bench: "SP", Kind: DataSets, classes: []npb.Class{npb.ClassW, npb.ClassA, npb.ClassB}},
		{ID: "6a", Caption: "Comparison of execution times for SP with Class W", Bench: "SP", Class: npb.ClassW, Procs: sqProcs, ChainLens: []int{4, 5, 6}, Kind: Predictions},
		{ID: "6b", Caption: "Comparison of execution times for SP with Class A", Bench: "SP", Class: npb.ClassA, Procs: sqProcs, ChainLens: []int{4, 5, 6}, Kind: Predictions},
		{ID: "6c", Caption: "Comparison of execution times for SP with Class B", Bench: "SP", Class: npb.ClassB, Procs: sqProcs, ChainLens: []int{4, 5, 6}, Kind: Predictions},
		{ID: "7", Caption: "Data sets used with the NPB LU", Bench: "LU", Kind: DataSets, classes: []npb.Class{npb.ClassW, npb.ClassA, npb.ClassB}},
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
	// Blocks and Passes override the measurement protocol
	// (Experiment.protocol) when positive.
	Blocks int
	Passes int
	// GridOverride, when positive, replaces the class grid with a tiny
	// n³ grid — used by tests and smoke runs.
	GridOverride int
	// Net, when non-nil, attaches an interconnect cost model.
	Net *mpi.NetModel
	// Parallel is the measurement executor's worker count (0/1 =
	// sequential, the timing-fidelity mode).
	Parallel int
	// Cache is the content-addressed measurement cache the studies read
	// and fill; its owner opens and closes it. Experiment.Run gives a nil
	// Cache a fresh in-memory one for that Run, which the Run's own
	// studies share.
	Cache *plan.Cache

	// fast marks paper -fast's smoke-test scale (Fast).
	fast bool
}

// Fast returns s at paper -fast's smoke-test scale: at each study's
// processor count the smallest grid of 8³ or more its benchmark's tiling
// accepts (gridAt), and 2 trips, unless s sets them; Experiment.protocol
// times 2 blocks at it unless s sets them.
func (s Scale) Fast() Scale {
	s.fast = true
	if s.Trips == 0 {
		s.Trips = 2
	}
	return s
}

// fastGrid is the smallest grid side paper -fast runs.
const fastGrid = 8

// gridAt is the grid override of a study of bench at procs ranks:
// GridOverride when set, else at paper -fast's scale the smallest n ≥ 8
// whose n³ grid the benchmark accepts at procs ranks — its tiling leaves
// every rank a tile at least its halo deep (SP's 2-deep halo over 5×5
// ranks needs n = 10) — else none. Every tile rule holds by n = 8·procs;
// a rank count no grid suits keeps 8 and fails the study with the
// benchmark's own error.
func (s Scale) gridAt(bench string, class npb.Class, procs int) int {
	if s.GridOverride > 0 || !s.fast {
		return s.GridOverride
	}
	b, err := benchmark(bench)
	if err != nil {
		return fastGrid
	}
	prob, err := b.Problem(class)
	if err != nil {
		return fastGrid
	}
	for n := fastGrid; n <= fastGrid*procs; n++ {
		if _, err := b.Factory(b.Grid(prob, n), procs); err == nil {
			return n
		}
	}
	return fastGrid
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

// protocol is the measurement protocol of the experiment's studies, or
// of its sweep's points, at scale s: the one place the tables decide it.
// What s sets wins. Otherwise a study times 5 blocks and reports the
// median of 3 actual runs — 3 blocks and 2 runs for class B, whose
// worlds are the largest — a §4.1 sweep point times 3 blocks aggregated
// by memmodel.SweepTrim, and paper -fast times 2 blocks of everything.
func (e Experiment) protocol(s Scale) timing.Protocol {
	p := timing.Protocol{Blocks: s.Blocks, Passes: s.Passes, Trim: e.trim, ActualRuns: 3}
	classB := e.Class == npb.ClassB
	if classB {
		p.ActualRuns = 2
	}
	if p.Blocks <= 0 {
		switch {
		case s.fast:
			p.Blocks = 2
		case classB || e.Kind == CacheTransitions:
			p.Blocks = 3
		default:
			p.Blocks = 5
		}
	}
	if e.Kind == CacheTransitions {
		p.Trim = memmodel.SweepTrim
	}
	return p.Resolved()
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

// query is the backend query of the experiment's study at procs ranks
// under s, its grid override resolved.
func (e Experiment) query(s Scale, procs int) predict.Query {
	return predict.Query{Bench: e.Bench, Class: e.Class, Procs: procs, Grid: s.gridAt(e.Bench, e.Class, procs)}
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

// engineAt builds the engine of the experiment's study at one processor
// count through the engine builder every backend query uses, under the
// experiment's protocol. It runs no world.
func (e Experiment) engineAt(s Scale, procs int) (harness.Engine, error) {
	return BackendConfig{Cache: s.Cache, Net: s.Net, Parallel: s.Parallel}.engine(e.query(s, procs), e.protocol(s))
}

// studyFor measures the experiment's study at one processor count and
// trip count. Its error names the processor count.
func (e Experiment) studyFor(s Scale, procs, trips int) (*harness.Study, error) {
	eng, err := e.engineAt(s, procs)
	var st *harness.Study
	if err == nil {
		st, err = eng.Run(trips, e.ChainLens)
	}
	if err != nil {
		return nil, fmt.Errorf("procs=%d: %w", procs, err)
	}
	return st, nil
}

// Run executes the experiment at the given scale and renders its table.
// Its error does not name the experiment: the caller knows which it ran.
func (e Experiment) Run(s Scale) (*Result, error) {
	if s.Cache == nil {
		s.Cache = plan.NewCache()
	}
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
	b, err := benchmark(e.Bench)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable(fmt.Sprintf("Table %s: %s", e.ID, e.Caption), e.Bench, "Data Set Size", "Loop Trips (paper)")
	for _, c := range e.classes {
		p, err := b.Problem(c)
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
			return nil, err
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

// sweepAxis is the Section 4.1 sweep's working-set axis, measurement
// options per point and streaming volume at a scale.
func (e Experiment) sweepAxis(s Scale) (sizes []int, o harness.Options, minBytes int) {
	sizes, minBytes = CacheSweepSizes(), 48<<20
	if s.fast || s.GridOverride > 0 {
		// Smoke mode: a tiny axis with minimal streaming volume.
		sizes = memmodel.GeometricSizes(8<<10, 128<<10, 4)
		minBytes = 1 << 20
	}
	return sizes, harness.Options{}.WithProtocol(e.protocol(s)), minBytes
}

func (e Experiment) runCacheSweep(s Scale) (*Result, error) {
	points, err := memmodel.Sweep(e.sweepAxis(s))
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable(fmt.Sprintf("Section 4.1: %s", e.Caption), "Working Set / Kernel", "Pair Coupling C_AB")
	for _, p := range points {
		tb.AddRow(fmtBytes(p.Bytes), fmt.Sprintf("%.4f", p.C))
	}
	trans := memmodel.Transitions(points, memmodel.TransitionThreshold)
	text := tb.String() + fmt.Sprintf("transitions (|ΔC| > %g): %d\n", memmodel.TransitionThreshold, len(trans))
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
