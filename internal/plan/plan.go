// Package plan is the declarative layer of the measurement pipeline: it
// turns a study's campaign — every kernel isolated, every length-L window
// of the loop ring, the actual runs — into Job values with deterministic
// order and content-addressed keys. Jobs are data, not actions: the
// executor (exec.go) schedules them over a worker pool and the cache
// (cache.go) dedupes them across chain lengths, tables, and repeated
// invocations, so the same window is never measured twice for the same
// world configuration.
package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/core"
)

// Kind classifies a measurement job.
type Kind string

// The three measurement kinds of the paper's methodology. The values
// match the harness provenance kinds.
const (
	// KindIsolated measures one kernel alone (P_k).
	KindIsolated Kind = "isolated"
	// KindWindow measures a kernel chain executed together (P_S).
	KindWindow Kind = "window"
	// KindActual runs the full application once.
	KindActual Kind = "actual"
)

// Spec is the content-addressed identity of one measurement: every field
// that can change the measured value participates in the job key, and
// nothing else does. Two jobs with equal canonical strings are the same
// measurement and may share a cached result.
type Spec struct {
	// Workload names the benchmark instance, e.g. "BT.S.4".
	Workload string
	// Procs is the world's rank count (0 for rankless synthetic workloads).
	Procs int
	// Window is the measured kernel chain in application order; a single
	// kernel for isolated jobs, empty for actual runs.
	Window []string
	// Trips is the loop trip count (actual runs only — windows are timed
	// per pass, independent of the trip count).
	Trips int
	// Run distinguishes the repeated actual runs whose median is reported;
	// without it they would collapse into one cache entry.
	Run int
	// Blocks and Passes are the measurement effort knobs (window jobs).
	Blocks int
	Passes int
	// TrimFrac is the requested block-aggregation trim (window jobs).
	TrimFrac float64
	// WorldDigest captures world configuration the workload name does not:
	// problem dimensions (a grid override changes them without renaming
	// the workload) and the interconnect model.
	WorldDigest string
	// FaultDigest is the canonical fault spec + seed when injection is
	// enabled, empty otherwise — it keeps perturbed results out of the
	// clean cache.
	FaultDigest string
}

// Job is one schedulable measurement.
type Job struct {
	Kind Kind
	Spec Spec
}

// Label is the human-readable handle used in provenance, reports and
// errors: the kernel/window key for measurements, the workload name for
// actual runs.
func (j Job) Label() string {
	if j.Kind == KindActual {
		return j.Spec.Workload
	}
	return core.Key(j.Spec.Window)
}

// Canonical returns the key pre-image: a versioned, kind-relevant
// rendering of the spec. Window jobs exclude the trip count (per-pass
// times do not depend on it) and actual jobs exclude the block/pass/trim
// knobs (a full run has none), so e.g. studies at different trip counts
// share their window measurements.
//
// It is one append pass over a sized buffer: every cache Get and Put
// renders it, so a cold study pays it per job. The bytes are those of the
// fmt.Fprintf("...|trim=%g|...") rendering it replaced (both format a
// float64 as strconv's shortest 'g'), which the golden tests pin — a cache
// directory is addressed by the hash of this string.
//
//kcvet:hotpath rendered for every job of every cache lookup and store
func (j Job) Canonical() string {
	s := &j.Spec
	n := 96 + len(s.Workload) + len(s.WorldDigest) + len(s.FaultDigest)
	for _, k := range s.Window {
		n += len(k) + 1
	}
	b := make([]byte, 0, n)
	b = append(b, "v1|kind="...)
	b = append(b, j.Kind...)
	b = append(b, "|wl="...)
	b = append(b, s.Workload...)
	b = append(b, "|procs="...)
	b = strconv.AppendInt(b, int64(s.Procs), 10)
	if j.Kind == KindActual {
		b = append(b, "|trips="...)
		b = strconv.AppendInt(b, int64(s.Trips), 10)
		b = append(b, "|run="...)
		b = strconv.AppendInt(b, int64(s.Run), 10)
	} else {
		b = append(b, "|win="...)
		if len(s.Window) > 0 {
			b = append(b, s.Window[0]...)
			for _, k := range s.Window[1:] {
				//kcvet:ignore hotalloc appends fill the buffer sized above from these same strings; growth needs integers and a trim wider than its 96 spare bytes
				b = append(append(b, '|'), k...)
			}
		}
		b = append(b, "|blocks="...)
		b = strconv.AppendInt(b, int64(s.Blocks), 10)
		b = append(b, "|passes="...)
		b = strconv.AppendInt(b, int64(s.Passes), 10)
		b = append(b, "|trim="...)
		b = strconv.AppendFloat(b, s.TrimFrac, 'g', -1, 64)
	}
	b = append(b, "|world="...)
	b = append(b, s.WorldDigest...)
	b = append(b, "|fault="...)
	b = append(b, s.FaultDigest...)
	return string(b)
}

// Key returns the content-addressed job key: the hex SHA-256 of the
// canonical string, truncated to 24 characters (96 bits — far beyond any
// plausible campaign size, short enough for filenames and logs).
func (j Job) Key() string { return keyOf(j.Canonical()) }

// keyOf hashes a canonical string into its job key, for callers that
// already hold the string.
func keyOf(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	var hexed [24]byte
	hex.Encode(hexed[:], sum[:12])
	return string(hexed[:])
}

// Inputs parameterizes a study's plan: everything StudyJobs needs beyond
// the application structure itself.
type Inputs struct {
	// Workload, Procs, WorldDigest and FaultDigest seed every job's Spec.
	Workload    string
	Procs       int
	WorldDigest string
	FaultDigest string
	// Trips is the loop trip count of the actual runs.
	Trips int
	// ChainLens are the requested window lengths, each in [2, ring size].
	ChainLens []int
	// Blocks, Passes and TrimFrac are the window measurement knobs.
	Blocks   int
	Passes   int
	TrimFrac float64
	// ActualRuns is how many full-application runs to plan.
	ActualRuns int
}

// WindowJob builds the job measuring one window (or one isolated kernel,
// when the window has a single element) under these inputs.
func WindowJob(in Inputs, window []string) Job {
	kind := KindWindow
	if len(window) == 1 {
		kind = KindIsolated
	}
	return Job{Kind: kind, Spec: Spec{
		Workload:    in.Workload,
		Procs:       in.Procs,
		Window:      append([]string(nil), window...),
		Blocks:      in.Blocks,
		Passes:      in.Passes,
		TrimFrac:    in.TrimFrac,
		WorldDigest: in.WorldDigest,
		FaultDigest: in.FaultDigest,
	}}
}

// ActualJob builds the job for full-application run number run.
func ActualJob(in Inputs, run int) Job {
	return Job{Kind: KindActual, Spec: Spec{
		Workload:    in.Workload,
		Procs:       in.Procs,
		Trips:       in.Trips,
		Run:         run,
		WorldDigest: in.WorldDigest,
		FaultDigest: in.FaultDigest,
	}}
}

// StudyJobs enumerates a study's measurement campaign in the canonical
// deterministic order: every kernel isolated (sorted by name), then the
// distinct windows of each requested chain length (lengths ascending,
// windows in ring order), then the actual runs. The order is part of the
// pipeline's contract — it is what a serial executor measures in, and it
// is pinned by a golden test.
func StudyJobs(app core.App, in Inputs) ([]Job, error) {
	var jobs []Job
	for _, k := range app.KernelsSorted() {
		jobs = append(jobs, WindowJob(in, []string{k}))
	}
	sorted := append([]int(nil), in.ChainLens...)
	sort.Ints(sorted)
	seen := make(map[string]bool)
	for _, L := range sorted {
		if L < 2 || L > len(app.Loop) {
			return nil, fmt.Errorf("plan: chain length %d out of range [2,%d]", L, len(app.Loop))
		}
		windows, err := app.Loop.Windows(L)
		if err != nil {
			return nil, err
		}
		for _, win := range windows {
			key := core.Key(win)
			if seen[key] {
				continue
			}
			seen[key] = true
			jobs = append(jobs, WindowJob(in, win))
		}
	}
	for r := 0; r < in.ActualRuns; r++ {
		jobs = append(jobs, ActualJob(in, r))
	}
	return jobs, nil
}
