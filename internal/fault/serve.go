package fault

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Serving-layer fault injection: the same seed-deterministic discipline
// as the MPI-world injector, pointed at the service's own failure
// surfaces — slow or failing cache disk reads, failing on-demand
// measurements, extra handler latency, and slow or failing peer fetches.
// A ServeInjector makes every decision from (seed, class, per-class
// operation index), never from wall time or global randomness, so a chaos
// run under a fixed seed produces the same fault schedule every time; the
// chaos tests lean on that to assert exact breaker transitions.
//
// The injector is nil-safe throughout: a disabled (nil) injector costs
// one nil check per site, mirroring mpi.Injector.

// Injected-failure sentinels. Deterministic bodies (no paths, no
// timestamps) so chaos responses stay byte-stable; errors.Is-able so
// tests and breakers can identify injected failures.
var (
	// ErrInjectedDisk is the injected cache-disk-read failure.
	ErrInjectedDisk = errors.New("fault: injected disk read error")
	// ErrInjectedMeasure is the injected on-demand-measurement failure.
	ErrInjectedMeasure = errors.New("fault: injected measurement failure")
	// ErrInjectedPeer is the injected peer-fill-fetch failure.
	ErrInjectedPeer = errors.New("fault: injected peer fetch failure")
)

// ServeInjector makes seed-deterministic serving-layer fault decisions.
// Each fault class consumes its own atomic operation counter, so the
// n-th disk read (in arrival order) always sees the same decision for a
// given (spec, seed) — concurrency changes which goroutine draws which
// index, never the schedule itself. A nil injector injects nothing.
type ServeInjector struct {
	seed uint64
	// streams holds the Serving classes' decision streams, by class; the
	// World classes' stay empty.
	streams [nClasses]stream
}

// stream is one serving class's decision stream: its spec — a delay or a
// failure — the sentinel a firing failure returns, the salt that
// decorrelates it from the other streams of a seed, its operation counter
// and the counter of decisions that fired.
type stream struct {
	delay *DelaySpec
	fail  *FailSpec
	err   error
	salt  uint64
	seq   atomic.Uint64
	fired *obs.Counter
}

// NewServeInjector builds an injector for the spec's Serving classes; a
// nil return for a spec with none keeps the disabled path a single nil
// check. Metrics may be nil.
func NewServeInjector(spec Spec, seed uint64, reg *obs.Registry) *ServeInjector {
	if spec.Only(World) == nil {
		return nil // no class outside the World ones
	}
	var handler *DelaySpec
	if h := spec.Handler; h != nil {
		// A fixed delay is a jittered one without jitter: its scale
		// factor is exactly 1.
		handler = &DelaySpec{P: h.P, Mean: h.Delay}
	}
	i := &ServeInjector{seed: seed, streams: [nClasses]stream{
		cDiskSlow:  {delay: spec.DiskSlow, salt: 0x6469736b736c6f77}, // "diskslow"
		cDiskErr:   {fail: spec.DiskErr, err: ErrInjectedDisk, salt: 0x6469736b65727221},
		cMeasure:   {fail: spec.MeasureErr, err: ErrInjectedMeasure, salt: 0x6d65617375726521},
		cHandler:   {delay: handler, salt: 0x68616e646c657221},
		cPeerDelay: {delay: spec.PeerDelay, salt: 0x7065657264656c61}, // "peerdela"
		cPeerErr:   {fail: spec.PeerErr, err: ErrInjectedPeer, salt: 0x7065657265727221},
	}}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	for c, cl := range classes {
		if cl.hooks == Serving {
			i.streams[c].fired = reg.Counter("fault.serve." + cl.name)
		}
	}
	return i
}

// DiskDelay returns the injected delay for the next cache disk read
// (zero for none). The caller sleeps; the injector only decides.
func (i *ServeInjector) DiskDelay() time.Duration { return i.delay(cDiskSlow) }

// DiskErr returns the injected failure for the next cache disk read
// (nil for none).
func (i *ServeInjector) DiskErr() error { return i.fail(cDiskErr) }

// MeasureErr returns the injected failure for the next on-demand
// measurement (nil for none).
func (i *ServeInjector) MeasureErr() error { return i.fail(cMeasure) }

// HandlerDelay returns the injected latency for the next request (zero
// for none).
func (i *ServeInjector) HandlerDelay() time.Duration { return i.delay(cHandler) }

// PeerDelay returns the injected delay for the next peer-fill fetch
// (zero for none). The caller sleeps; the injector only decides.
func (i *ServeInjector) PeerDelay() time.Duration { return i.delay(cPeerDelay) }

// PeerErr returns the injected failure for the next peer-fill fetch
// (nil for none). Fired before the request leaves the node, so it
// exercises the breaker-and-fallback path without any real peer dying.
func (i *ServeInjector) PeerErr() error { return i.fail(cPeerErr) }

// delay resolves a delay class's next decision: with probability P, Mean
// scaled by a jitter factor in [1-Jitter, 1+Jitter] drawn from an
// independent decorrelated stream.
func (i *ServeInjector) delay(c int) time.Duration {
	if i == nil || i.streams[c].delay == nil {
		return 0
	}
	s := &i.streams[c]
	d := s.delay
	h := splitmix64(i.seed ^ s.salt ^ s.seq.Add(1))
	if u01(h) >= d.P {
		return 0
	}
	f := 1 + d.Jitter*(2*u01(splitmix64(h))-1)
	s.fired.Add(1)
	return time.Duration(float64(d.Mean) * f)
}

// fail resolves a failure class's next decision: with a count the first
// count operations fail; otherwise operation n fails when its seeded draw
// lands under P.
func (i *ServeInjector) fail(c int) error {
	if i == nil || i.streams[c].fail == nil {
		return nil
	}
	s := &i.streams[c]
	f, n := s.fail, s.seq.Add(1)
	fire := n <= f.Count
	if f.Count == 0 {
		fire = u01(splitmix64(i.seed^s.salt^n)) < f.P
	}
	if !fire {
		return nil
	}
	s.fired.Add(1)
	return s.err
}
