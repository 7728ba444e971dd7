package fault

import (
	"flag"
	"fmt"
	"strings"
	"time"
)

// DefaultWatchdog is the progress-watchdog timeout armed when fault
// injection is enabled and the user did not choose one. Faults that stall
// communication (drops, crashes) must surface as a structured
// who-waits-on-whom report, never as a hang.
const DefaultWatchdog = 30 * time.Second

// Flags bundles the fault-injection command-line surface shared by the
// binaries that run MPI worlds (-fault-spec, -fault-seed, -fault-retries,
// -watchdog).
type Flags struct {
	// Spec is the fault specification in the Parse grammar, World classes
	// only; blank disables injection entirely.
	Spec string
	// Seed drives every fault decision; the same seed reproduces the same
	// schedule byte-for-byte.
	Seed uint64
	// Retries is the per-measurement retry budget the harness spends
	// before degrading a window.
	Retries int
	// Watchdog is the progress-watchdog timeout; zero means
	// DefaultWatchdog when injection is enabled, disabled otherwise.
	Watchdog time.Duration
}

// Register installs the fault flags on fs and returns the struct they
// populate.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Spec, "fault-spec", "", "fault injection spec: "+World.Usage())
	fs.Uint64Var(&f.Seed, "fault-seed", 1,
		"seed for the deterministic fault schedule; same seed, same schedule")
	fs.IntVar(&f.Retries, "fault-retries", 2,
		"per-measurement retry budget before a window degrades")
	fs.DurationVar(&f.Watchdog, "watchdog", 0,
		"progress watchdog timeout (0: 30s when -fault-spec is set, off otherwise)")
	return f
}

// Enabled reports whether a fault spec was given.
func (f *Flags) Enabled() bool { return strings.TrimSpace(f.Spec) != "" }

// WatchdogTimeout resolves the effective watchdog timeout.
func (f *Flags) WatchdogTimeout() time.Duration {
	if f.Watchdog > 0 {
		return f.Watchdog
	}
	if f.Enabled() {
		return DefaultWatchdog
	}
	return 0
}

// Digest returns the canonical fault configuration for content-addressed
// measurement keys: empty when injection is off, otherwise the raw spec
// plus the seed (the seed changes the schedule, hence the measurements).
// It uses the spec text as given — Build validates it first, so by the
// time a digest reaches a job key the spec is known to parse.
func (f *Flags) Digest() string {
	if !f.Enabled() {
		return ""
	}
	return fmt.Sprintf("spec=%s;seed=%d", f.Spec, f.Seed)
}

// Build parses the spec and returns the injector, or nil when injection is
// disabled. A Serving class is an error naming the command that takes it.
func (f *Flags) Build() (*Injector, error) {
	if !f.Enabled() {
		return nil, nil
	}
	spec, err := Parse(f.Spec)
	if err == nil {
		err = spec.Only(World)
	}
	if err != nil {
		return nil, err
	}
	return New(spec, f.Seed), nil
}
