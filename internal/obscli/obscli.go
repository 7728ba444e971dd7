// Package obscli wires the observability stack into commands: it owns the
// -trace-out, -metrics-out and -pprof flags shared by cmd/npbrun and
// cmd/couple, builds the metric registry / trace / MPI observer they
// request, and writes the Perfetto trace and run manifest when the
// command finishes.
package obscli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Flags holds the observability flag values.
type Flags struct {
	// TraceOut is the Chrome/Perfetto trace-event JSON output path.
	TraceOut string
	// MetricsOut is the run-manifest (metrics + provenance) output path.
	MetricsOut string
	// Pprof is the CPU profile output path.
	Pprof string
}

// Register installs the flags on fs (the default flag set when nil).
func (f *Flags) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Perfetto/Chrome trace-event JSON file")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write a run manifest with the metric snapshot (JSON)")
	fs.StringVar(&f.Pprof, "pprof", "", "write a CPU profile")
}

// Enabled reports whether any runtime instrumentation was requested
// (the CPU profile alone does not require instrumenting worlds).
func (f Flags) Enabled() bool { return f.TraceOut != "" || f.MetricsOut != "" }

// ServeFlags holds the observability flags of long-running services
// (kcserved): per-request outputs rather than per-run ones.
type ServeFlags struct {
	// LogOut is the structured JSON access-log path ("-" for stderr).
	LogOut string
}

// Register installs the serving flags on fs (the default flag set when
// nil).
func (f *ServeFlags) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&f.LogOut, "log-out", "", `write a JSON access log (one line per request; "-" for stderr)`)
}

// OpenAccessLog opens the access-log writer: nil when the flag is unset,
// os.Stderr for "-", a created file otherwise. The returned closer is
// nil exactly when no closing is needed (unset or stderr).
func (f ServeFlags) OpenAccessLog() (w io.Writer, closer io.Closer, err error) {
	switch f.LogOut {
	case "":
		return nil, nil, nil
	case "-":
		return os.Stderr, nil, nil
	default:
		lf, err := os.Create(f.LogOut)
		if err != nil {
			return nil, nil, fmt.Errorf("obscli: access log: %w", err)
		}
		return lf, lf, nil
	}
}

// Sink is the wired-up observability of one command run.
type Sink struct {
	flags Flags
	// Registry collects metrics; shared by the MPI observer and any
	// harness-level instrumentation. Nil when instrumentation is off.
	Registry *obs.Registry
	// Trace collects every span of the run on one clock: kernel and MPI
	// spans from the worlds WorldOpts attaches, and the harness stages
	// of a campaign that carries it in its context
	// (obs.ContextWithTrace). Nil unless -trace-out was given; a command
	// that renders spans itself (npbrun -trace) may set it before
	// calling WorldOpts.
	Trace *obs.Trace

	pprofFile *os.File
}

// Open builds the sinks the flags request and starts the CPU profile.
// Always returns a usable Sink; with no flags set it is inert.
func Open(f Flags) (*Sink, error) {
	s := &Sink{flags: f}
	if f.Pprof != "" {
		pf, err := os.Create(f.Pprof)
		if err != nil {
			return nil, fmt.Errorf("obscli: pprof: %w", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return nil, fmt.Errorf("obscli: pprof: %w", err)
		}
		s.pprofFile = pf
	}
	if f.Enabled() {
		s.Registry = obs.NewRegistry()
	}
	if f.TraceOut != "" {
		s.Trace = obs.NewTrace(nil)
	}
	return s, nil
}

// WorldOpts returns the MPI options that attach the sink to a world;
// empty when instrumentation is off.
func (s *Sink) WorldOpts() []mpi.Option {
	if s.Registry == nil && s.Trace == nil {
		return nil
	}
	return []mpi.Option{mpi.WithObserver(mpi.NewObserver(s.Registry, s.Trace))}
}

// Close stops the CPU profile and writes the requested outputs: the
// trace-event file of everything the trace recorded, and the manifest
// with the final metric snapshot. The caller fills the
// manifest's run-identification and wall-clock fields.
func (s *Sink) Close(man obs.Manifest) error {
	if s.pprofFile != nil {
		pprof.StopCPUProfile()
		if err := s.pprofFile.Close(); err != nil {
			return fmt.Errorf("obscli: pprof: %w", err)
		}
		s.pprofFile = nil
	}
	if s.flags.TraceOut != "" {
		if err := trace.WriteTraceEventFile(s.flags.TraceOut, trace.Group{Spans: s.Trace.Spans()}); err != nil {
			return fmt.Errorf("obscli: trace: %w", err)
		}
	}
	if s.flags.MetricsOut != "" {
		snap := s.Registry.Snapshot()
		man.Metrics = &snap
		if err := man.WriteFile(s.flags.MetricsOut); err != nil {
			return fmt.Errorf("obscli: metrics: %w", err)
		}
	}
	return nil
}
