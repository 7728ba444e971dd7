package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// Manifest is the self-description of one measurement run: what was run,
// on what toolchain and host, with which knobs, and what the runtime
// metrics looked like when it finished. cmd/npbrun and cmd/couple write
// one next to every -metrics-out request; cmd/kcreport renders it.
//
// Serialization is deterministic: struct fields marshal in declaration
// order, the Extra map marshals in sorted key order (encoding/json
// guarantee), and the metric snapshot is sorted by construction. The
// caller supplies anything wall-clock derived (UnixSeconds, WallSeconds):
// this package never reads a clock itself.
type Manifest struct {
	// Tool is the producing command, e.g. "npbrun" or "couple".
	Tool string `json:"tool"`
	// Benchmark, Class, Procs and Trips identify the run configuration.
	Benchmark string `json:"benchmark,omitempty"`
	Class     string `json:"class,omitempty"`
	Procs     int    `json:"procs,omitempty"`
	Trips     int    `json:"trips,omitempty"`
	// GoVersion, Module, ModuleSum, OS, Arch and CPUs describe the
	// toolchain and host.
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	ModuleSum string `json:"module_sum,omitempty"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	// UnixSeconds is the caller-supplied start time of the run (seconds
	// since the Unix epoch); zero when the caller wants byte-identical
	// output across runs.
	UnixSeconds int64 `json:"unix_seconds,omitempty"`
	// WallSeconds is the caller-measured wall-clock duration of the run.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// Extra carries free-form key/value context (flags, notes).
	Extra map[string]string `json:"extra,omitempty"`
	// Health records the fault-injection and degradation story of the
	// run; nil on fault-free runs so their manifests stay byte-identical
	// to pre-fault output.
	Health *Health `json:"health,omitempty"`
	// Metrics is the registry snapshot taken at the end of the run.
	Metrics *Snapshot `json:"metrics,omitempty"`
}

// Health is the manifest's fault-and-degradation record: what faults were
// injected (and how to reproduce the schedule), what the measurement
// pipeline retried or degraded, and any structured errors the run ended
// with. All fields are pre-rendered strings so this package stays
// decoupled from the fault and harness layers; producers keep them
// deterministic.
type Health struct {
	// FaultSpec is the canonical fault specification, empty when faults
	// were off.
	FaultSpec string `json:"fault_spec,omitempty"`
	// FaultSeed reproduces the schedule together with FaultSpec.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// FaultTally summarizes how many faults of each class fired.
	FaultTally string `json:"fault_tally,omitempty"`
	// ScheduleDigest fingerprints the full fault schedule; two runs with
	// the same digest injected byte-identical schedules.
	ScheduleDigest string `json:"schedule_digest,omitempty"`
	// FaultEvents lists the injected faults (possibly capped), one
	// rendered line each, in deterministic order.
	FaultEvents []string `json:"fault_events,omitempty"`
	// Retries lists every measurement retry the harness spent.
	Retries []string `json:"retries,omitempty"`
	// FailedWindows lists windows that stayed unmeasurable after the
	// retry budget.
	FailedWindows []string `json:"failed_windows,omitempty"`
	// DegradedCoefficients lists coefficients computed from partial or
	// fallback window sets.
	DegradedCoefficients []string `json:"degraded_coefficients,omitempty"`
	// Errors holds the structured errors of a run that failed outright.
	Errors []string `json:"errors,omitempty"`
}

// NewManifest returns a manifest for the named tool with the toolchain
// and host fields filled in from the running binary.
func NewManifest(tool string) Manifest {
	m := Manifest{
		Tool:      tool,
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.Module = bi.Main.Path
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			m.ModuleSum = bi.Main.Sum
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.ModuleSum = s.Value
			}
		}
	}
	return m
}

// WriteJSON writes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the manifest to path, creating or truncating it.
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: manifest: %w", err)
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: manifest: %w", err)
	}
	return f.Close()
}

// ReadManifestFile parses a manifest previously written by WriteFile.
func ReadManifestFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: manifest %s: %w", path, err)
	}
	return &m, nil
}
