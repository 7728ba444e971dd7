// Package harness orchestrates the paper's measurement campaign: for an
// application decomposed into kernels it measures every kernel in
// isolation, every length-L window of the loop ring executed together, and
// the full application, then feeds the measurements to the coupling
// composition algebra and reports the predictions next to the traditional
// summation baseline — the structure of the paper's comparison tables.
package harness

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/timing"
)

// Options tunes how much measurement effort a study spends. Blocks,
// Passes, TrimFrac and ActualRuns are the study's timing.Protocol, kept
// as flat fields; only Protocol interprets them.
type Options struct {
	// Blocks is the number of independently timed blocks per window
	// measurement.
	Blocks int
	// Passes is the number of window passes per block.
	Passes int
	// ActualRuns is how many times the full application is run; the
	// median is reported.
	ActualRuns int
	// TrimFrac is the requested trim of a window measurement's timed
	// blocks (timing.Protocol.Trim); the trimming ablation's -1 asks for
	// the raw mean.
	TrimFrac float64
	// Metrics, when non-nil, receives harness-level observability:
	// windows measured, blocks timed, per-pass time distributions.
	Metrics *obs.Registry
	// MaxRetries is the per-measurement retry budget: a failed window,
	// isolated or actual measurement is retried with exponential backoff
	// up to this many times before the failure counts (default 0: fail
	// on the first error, the pre-fault-injection behavior).
	MaxRetries int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt (default 50ms).
	RetryBackoff time.Duration
	// Degrade makes the study degrade instead of die: a window still
	// unmeasurable after the retry budget is recorded in the study's
	// Health, its coefficients fall back down the degradation ladder
	// (shorter-chain sub-windows, ultimately the summation predictor),
	// and the study completes. Isolated and actual measurements stay
	// fatal — without them there is nothing to predict or compare.
	Degrade bool
	// Parallel is the executor's worker count (default 1). At 1,
	// measurements run strictly sequentially in plan order — the
	// timing-fidelity mode whose output is byte-identical to the
	// historical serial pipeline. Larger values run independent jobs
	// concurrently (each job is its own world), trading timing fidelity
	// for wall time — right for CI, chaos and correctness campaigns.
	Parallel int
	// Cache, when non-nil, is the content-addressed measurement cache
	// shared across studies: jobs it already holds are served without
	// running a world, and fresh results are stored back. Nil gives each
	// study a private in-memory cache.
	Cache *plan.Cache
	// WorldDigest feeds the job keys with world configuration the
	// workload name does not capture (problem dimensions, network model).
	WorldDigest string
	// FaultDigest feeds the job keys with the active fault-injection
	// configuration, keeping perturbed measurements out of the clean
	// cache. Empty when injection is off.
	FaultDigest string
	// sleep, when non-nil, replaces time.Sleep for retry backoff (tests).
	sleep func(time.Duration)
}

// Protocol returns the study's measurement protocol, resolved.
func (o Options) Protocol() timing.Protocol {
	return timing.Protocol{Blocks: o.Blocks, Passes: o.Passes, Trim: o.TrimFrac, ActualRuns: o.ActualRuns}.Resolved()
}

// WithProtocol returns o measuring under protocol p.
func (o Options) WithProtocol(p timing.Protocol) Options {
	o.Blocks, o.Passes, o.TrimFrac, o.ActualRuns = p.Blocks, p.Passes, p.Trim, p.ActualRuns
	return o
}

// Workload is an application the harness can measure. Implementations
// exist for the NPB benchmarks (NPBWorkload), for the memmodel cache
// sweep (memmodel.PairWorkload) and for deterministic synthetic cost
// models (see Synthetic).
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Kernels returns the kernel names grouped as pre / loop ring / post.
	Kernels() (pre, loop, post []string)
	// MeasureWindow returns the per-pass time in seconds of the given
	// kernels executed together in application order inside a loop.
	MeasureWindow(window []string, o Options) (float64, error)
	// MeasureActual returns the wall-clock seconds of a full application
	// run with the given loop trip count.
	MeasureActual(trips int, o Options) (float64, error)
}

// WindowDetailer is the optional Workload refinement that exposes the
// raw per-block timings and trim decision behind a window measurement.
// Workloads implementing it get full measurement provenance in the
// study; others are recorded aggregate-only.
type WindowDetailer interface {
	MeasureWindowDetail(window []string, o Options) (plan.Result, error)
}

// NPBWorkload adapts an npb.Factory (BT, SP, LU or FT) to the harness.
type NPBWorkload struct {
	// WorkloadName identifies the benchmark instance, e.g. "BT.A.4".
	WorkloadName string
	// Factory runs the workload's worlds. It hands the rank state of one
	// measurement's world to the next, so without a Pool the workload —
	// and the engine holding it: one study, one request — is what bounds
	// that state's lifetime.
	Factory *npb.Factory
	// Pool, when non-nil, is asked ahead of every world for the factory
	// of the configuration PoolKey names, and holds Factory as that if it
	// has none: the state then lives as long as the pool, and the next
	// study of the configuration rebinds it. The pool is not touched
	// before a world runs — a study answered from the cache never does.
	Pool    *npb.Pool
	PoolKey npb.PoolKey
	// Pre, Loop and Post are the kernel groups.
	Pre, Loop, Post []string
	// Procs is the rank count.
	Procs int
	// WorldOpts configures the MPI world (e.g. a network model).
	WorldOpts []mpi.Option
}

// Name implements Workload.
func (w *NPBWorkload) Name() string { return w.WorkloadName }

// factory returns the factory the next world runs through.
func (w *NPBWorkload) factory() *npb.Factory { return w.Pool.Factory(w.PoolKey, w.Factory) }

// RankCount reports the world's rank count for job planning: the same
// benchmark at a different rank count is a different measurement.
func (w *NPBWorkload) RankCount() int { return w.Procs }

// Kernels implements Workload.
func (w *NPBWorkload) Kernels() (pre, loop, post []string) {
	return w.Pre, w.Loop, w.Post
}

// MeasureWindow implements Workload: MeasureWindowDetail's per-pass time.
func (w *NPBWorkload) MeasureWindow(window []string, o Options) (float64, error) {
	res, err := w.MeasureWindowDetail(window, o)
	return res.Seconds, err
}

// MeasureWindowDetail implements WindowDetailer via
// npb.MeasureWindowDetail, keeping per-block provenance.
func (w *NPBWorkload) MeasureWindowDetail(window []string, o Options) (plan.Result, error) {
	res, world, err := npb.MeasureWindowDetail(w.factory(), window, o.Protocol(), npb.MeasureOptions{
		Procs:     w.Procs,
		WorldOpts: w.WorldOpts,
	})
	if err == nil {
		countWorld(o.Metrics, world)
	}
	return res, err
}

// MeasureActual implements Workload via npb.MeasureFull.
func (w *NPBWorkload) MeasureActual(trips int, o Options) (float64, error) {
	secs, world, err := npb.MeasureFull(w.factory(), w.Pre, w.Loop, trips, w.Post, npb.MeasureOptions{
		Procs:     w.Procs,
		WorldOpts: w.WorldOpts,
	})
	if err == nil {
		countWorld(o.Metrics, world)
	}
	return secs, err
}

// countWorld publishes where a finished measurement's world got its rank
// state, and how many of its timed regions a garbage collection completed
// under — what the forced collection ahead of every world used to be
// trusted to prevent (read against harness.blocks.timed plus
// harness.measure.actual.count).
func countWorld(m *obs.Registry, ws npb.WorldStats) {
	if m == nil {
		return
	}
	if ws.Recycled {
		m.Counter("harness.worlds.recycled").Inc()
	} else {
		m.Counter("harness.worlds.fresh").Inc()
	}
	m.Counter("harness.timed.gc_overlapped").Add(int64(ws.GCOverlapped))
}

// PredictionResult is one predictor's outcome against the measured time.
type PredictionResult struct {
	// Label names the predictor, e.g. "Summation" or "Coupling: 3 kernels".
	Label string
	// Predicted is the predicted execution time in seconds.
	Predicted float64
	// RelErr is |Predicted-Actual|/Actual.
	RelErr float64
	// ChainLen is the window length for coupling predictors, 0 for the
	// summation baseline.
	ChainLen int
}

// MeasurementRecord ties one reported number to the raw observations it
// was aggregated from, so every C_S in a table can be audited: which
// blocks were timed, what trim dropped, whether it came from an isolated
// or a chained execution.
type MeasurementRecord struct {
	// Key is the kernel name (isolated), window key (window), or the
	// workload name (actual).
	Key string `json:"key"`
	// Kind is plan.KindIsolated, plan.KindWindow or plan.KindActual.
	Kind plan.Kind `json:"kind"`
	// Result is the measurement as the cache stores it. For the
	// aggregate actual record, Raw holds the per-run seconds and Seconds
	// their median; it records no trim or passes.
	plan.Result
	// Cached reports the value was served by the measurement cache
	// rather than a fresh world execution (for the aggregate actual
	// record: every contributing run was cached).
	Cached bool `json:"cached,omitempty"`
}

// Study is a complete measurement-and-prediction campaign for one
// workload configuration — the content of one column of the paper's
// comparison tables, for every requested chain length.
type Study struct {
	// Workload is the measured workload's name.
	Workload string
	// Trips is the loop trip count used.
	Trips int
	// App is the application structure handed to the composition algebra.
	App core.App
	// Measurements holds every isolated and window measurement taken.
	Measurements core.Measurements
	// Actual is the measured full-application time in seconds.
	Actual float64
	// Summation is the baseline prediction.
	Summation PredictionResult
	// Couplings maps chain length to the coupling predictor's outcome.
	Couplings map[int]PredictionResult
	// Details maps chain length to the full prediction (coefficients and
	// window couplings) for reporting.
	Details map[int]core.Prediction
	// Provenance records, in measurement order, how each number in
	// Measurements and Actual was produced.
	Provenance []MeasurementRecord
	// Health records every retry, failed window and degraded coefficient;
	// the zero value on a clean run.
	Health StudyHealth
	// Exec summarizes how the planned jobs were satisfied (executed vs
	// served from cache).
	Exec ExecStats
	// AnalyticCmp, when non-empty, compares each measured window coupling
	// against the analytic backend's predicted band; the report renders
	// it as a per-window disagreement column. Empty on plain studies, so
	// clean output stays byte-identical.
	AnalyticCmp []AnalyticWindow
}

// AnalyticWindow is one window's measured-vs-analytic coupling
// comparison: the measured C_S against the analytic model's prediction
// and its stated confidence band.
type AnalyticWindow struct {
	// Key is the window's canonical key (core.Key).
	Key string
	// Measured is the study's measured coupling value.
	Measured float64
	// Analytic is the model's predicted coupling value.
	Analytic float64
	// Lo and Hi are the model's own confidence band.
	Lo, Hi float64
}

// InBand reports whether the measured value lies inside the analytic
// band (inclusive).
func (a AnalyticWindow) InBand() bool { return a.Measured >= a.Lo && a.Measured <= a.Hi }

// AnalyticDisagreements counts the compared windows whose measured
// coupling left the analytic band — the quantity the CI backend-
// agreement gate thresholds.
func (s *Study) AnalyticDisagreements() int {
	n := 0
	for _, a := range s.AnalyticCmp {
		if !a.InBand() {
			n++
		}
	}
	return n
}

// RunStudy measures the workload and produces predictions for every chain
// length in chainLens (each in [2, len(loop)]), plus the summation
// baseline. trips is the loop trip count for both the actual run and the
// predictions. It is a thin wrapper over the Engine's
// plan → execute → analyze pipeline.
func RunStudy(w Workload, trips int, chainLens []int, o Options) (*Study, error) {
	return Engine{Workload: w, Opts: o}.Run(trips, chainLens)
}

// BestPredictor returns the prediction (summation or any coupling length)
// with the smallest relative error. Ties go to summation, then to the
// shortest chain.
func (s *Study) BestPredictor() PredictionResult {
	best := s.Summation
	for _, L := range s.ChainLens() {
		if p := s.Couplings[L]; p.RelErr < best.RelErr {
			best = p
		}
	}
	return best
}

// ChainLens returns the measured chain lengths in ascending order.
func (s *Study) ChainLens() []int {
	ls := make([]int, 0, len(s.Couplings))
	for l := range s.Couplings {
		ls = append(ls, l)
	}
	sort.Ints(ls)
	return ls
}
