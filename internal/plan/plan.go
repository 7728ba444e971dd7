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
	// label is Label's value, rendered once by the constructors below;
	// empty in a Job built by hand, whose Label renders it on each call.
	label string
}

// Label is the human-readable handle used in provenance, reports and
// errors: the kernel/window key for measurements, the workload name for
// actual runs.
func (j Job) Label() string {
	switch {
	case j.label != "":
		return j.label
	case j.Kind == KindActual:
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
// The bytes are those of the fmt.Fprintf("...|trim=%g|...") rendering
// appendCanonical replaced (both format a float64 as strconv's shortest
// 'g'), which the golden tests pin — a cache directory is addressed by the
// hash of this string.
func (j Job) Canonical() string {
	var buf [canonicalBuf]byte
	return string(j.appendCanonical(buf[:0]))
}

// Key returns the content-addressed job key: the hex SHA-256 of the
// canonical string, truncated to 24 characters (96 bits — far beyond any
// plausible campaign size, short enough for filenames and logs).
func (j Job) Key() string {
	var buf [canonicalBuf]byte
	return keyOf(j.appendCanonical(buf[:0]))
}

// canonicalBuf is the stack buffer a canonical string is rendered into:
// room for the canonical strings of every workload in this repository (a
// five-kernel window under a network model and a fault spec is under 200
// bytes); a longer one grows onto the heap.
const canonicalBuf = 256

// appendCanonical appends the canonical string to b in one pass.
//
//kcvet:hotpath rendered for every job of every cache lookup and store
func (j *Job) appendCanonical(b []byte) []byte {
	s := &j.Spec
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
				//kcvet:ignore hotalloc appends fill the caller's stack buffer; only a canonical longer than canonicalBuf grows onto the heap
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
	return b
}

// keyOf hashes a canonical string into its job key.
func keyOf[S string | []byte](canonical S) string {
	sum := sha256.Sum256([]byte(canonical))
	var key [keyLen]byte
	hex.Encode(key[:], sum[:keyLen/2])
	return string(key[:])
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
// when the window has a single element) under these inputs. The job
// holds a copy of window.
func WindowJob(in Inputs, window []string) Job {
	window = append([]string(nil), window...)
	return windowJob(in, window, core.Key(window))
}

// windowJob is WindowJob for a window the job may keep, whose key the
// caller has already joined.
func windowJob(in Inputs, window []string, key string) Job {
	kind := KindWindow
	if len(window) == 1 {
		kind = KindIsolated
	}
	return Job{Kind: kind, label: key, Spec: Spec{
		Workload:    in.Workload,
		Procs:       in.Procs,
		Window:      window,
		Blocks:      in.Blocks,
		Passes:      in.Passes,
		TrimFrac:    in.TrimFrac,
		WorldDigest: in.WorldDigest,
		FaultDigest: in.FaultDigest,
	}}
}

// ActualJob builds the job for full-application run number run.
func ActualJob(in Inputs, run int) Job {
	return Job{Kind: KindActual, label: in.Workload, Spec: Spec{
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
//
// The jobs' windows are views into arrays this call allocates and shares
// between them: read them, never write to them.
func StudyJobs(app core.App, in Inputs) ([]Job, error) {
	kernels := app.KernelsSorted()
	jobs := make([]Job, 0, len(kernels)+len(in.ChainLens)*len(app.Loop)+in.ActualRuns)
	for i, k := range kernels {
		jobs = append(jobs, windowJob(in, kernels[i:i+1:i+1], k))
	}
	sorted := append([]int(nil), in.ChainLens...)
	sort.Ints(sorted)
	seen := make(map[string]bool, len(sorted)*len(app.Loop))
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
			jobs = append(jobs, windowJob(in, win, key))
		}
	}
	for r := 0; r < in.ActualRuns; r++ {
		jobs = append(jobs, ActualJob(in, r))
	}
	return jobs, nil
}
