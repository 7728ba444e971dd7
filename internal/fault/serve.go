package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Serving-layer fault injection: the same seed-deterministic discipline
// as the MPI-world injector, pointed at the service's own failure
// surfaces — slow or failing cache disk reads, failing on-demand
// measurements, and extra handler latency. A ServeInjector makes every
// decision from (seed, class, per-class operation index), never from
// wall time or global randomness, so a chaos run under a fixed seed
// produces the same fault schedule every time; the chaos tests lean on
// that to assert exact breaker transitions.
//
// The injector is nil-safe throughout: a disabled (nil) injector costs
// one nil check per site, mirroring mpi.Injector.

// DiskSlowSpec delays cache disk reads: each read is, with probability
// P, delayed by Mean scaled by a deterministic jitter factor in
// [1-Jitter, 1+Jitter].
type DiskSlowSpec struct {
	P      float64
	Mean   time.Duration
	Jitter float64
}

// DiskErrSpec fails cache disk reads. With Count > 0 exactly the first
// Count reads fail (deterministic burst — the breaker-recovery gate's
// shape); otherwise each read fails with probability P.
type DiskErrSpec struct {
	P     float64
	Count uint64
}

// MeasureErrSpec fails on-demand measurements, same Count/P semantics
// as DiskErrSpec.
type MeasureErrSpec struct {
	P     float64
	Count uint64
}

// HandlerDelaySpec adds latency inside request handlers: each request
// is, with probability P, delayed by Delay.
type HandlerDelaySpec struct {
	P     float64
	Delay time.Duration
}

// PeerDelaySpec delays peer-fill fetches: each fetch is, with
// probability P, delayed by Mean scaled by a deterministic jitter
// factor in [1-Jitter, 1+Jitter]. The shape a slow (but alive) peer
// drill needs.
type PeerDelaySpec struct {
	P      float64
	Mean   time.Duration
	Jitter float64
}

// PeerErrSpec fails peer-fill fetches before they leave the node, same
// Count/P semantics as DiskErrSpec — count bursts are how the cluster
// gate trips one peer's breaker on schedule (a "dead peer" as seen from
// this node).
type PeerErrSpec struct {
	P     float64
	Count uint64
}

// ServeSpec is a parsed serving-side fault specification. The zero
// ServeSpec injects nothing.
type ServeSpec struct {
	DiskSlow   *DiskSlowSpec
	DiskErr    *DiskErrSpec
	MeasureErr *MeasureErrSpec
	Handler    *HandlerDelaySpec
	PeerDelay  *PeerDelaySpec
	PeerErr    *PeerErrSpec
}

// ParseServe parses the serving-side -fault-spec grammar (same clause
// syntax as Parse, different classes):
//
//	diskslow:p=<0..1>,mean=<dur>[,jitter=<0..1>]  slow cache disk reads (jitter default 0.5)
//	diskerr:p=<0..1>|count=<n>                    failing cache disk reads
//	measure:p=<0..1>|count=<n>                    failing on-demand measurements
//	handler:delay=<dur>[,p=<0..1>]                handler latency (p default 1)
//	peerdelay:p=<0..1>,mean=<dur>[,jitter=<0..1>] slow peer-fill fetches (jitter default 0.5)
//	peererr:p=<0..1>|count=<n>                    failing peer-fill fetches
//
// count=<n> fails exactly the first n operations — the deterministic
// burst shape the chaos gate uses to demonstrate a breaker opening and
// then recovering.
//
// Example: "diskerr:count=8;measure:p=0.3;handler:delay=5ms,p=0.1".
func ParseServe(s string) (ServeSpec, error) {
	var spec ServeSpec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return ServeSpec{}, fmt.Errorf("fault: clause %q: want class:key=val,...", clause)
		}
		kv, err := parseKVs(rest)
		if err != nil {
			return ServeSpec{}, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
		switch strings.TrimSpace(name) {
		case "diskslow":
			d := &DiskSlowSpec{P: 1, Jitter: 0.5}
			if err := kv.apply(map[string]func(string) error{
				"p":      probInto(&d.P),
				"mean":   durInto(&d.Mean),
				"jitter": probInto(&d.Jitter),
			}); err != nil {
				return ServeSpec{}, fmt.Errorf("fault: diskslow: %w", err)
			}
			if d.Mean <= 0 {
				return ServeSpec{}, fmt.Errorf("fault: diskslow: mean duration required")
			}
			spec.DiskSlow = d
		case "diskerr":
			d := &DiskErrSpec{}
			if err := kv.apply(map[string]func(string) error{
				"p":     probInto(&d.P),
				"count": uintInto(&d.Count),
			}); err != nil {
				return ServeSpec{}, fmt.Errorf("fault: diskerr: %w", err)
			}
			if d.P <= 0 && d.Count == 0 {
				return ServeSpec{}, fmt.Errorf("fault: diskerr: p or count required")
			}
			spec.DiskErr = d
		case "measure":
			m := &MeasureErrSpec{}
			if err := kv.apply(map[string]func(string) error{
				"p":     probInto(&m.P),
				"count": uintInto(&m.Count),
			}); err != nil {
				return ServeSpec{}, fmt.Errorf("fault: measure: %w", err)
			}
			if m.P <= 0 && m.Count == 0 {
				return ServeSpec{}, fmt.Errorf("fault: measure: p or count required")
			}
			spec.MeasureErr = m
		case "handler":
			h := &HandlerDelaySpec{P: 1}
			if err := kv.apply(map[string]func(string) error{
				"p":     probInto(&h.P),
				"delay": durInto(&h.Delay),
			}); err != nil {
				return ServeSpec{}, fmt.Errorf("fault: handler: %w", err)
			}
			if h.Delay <= 0 {
				return ServeSpec{}, fmt.Errorf("fault: handler: delay duration required")
			}
			spec.Handler = h
		case "peerdelay":
			d := &PeerDelaySpec{P: 1, Jitter: 0.5}
			if err := kv.apply(map[string]func(string) error{
				"p":      probInto(&d.P),
				"mean":   durInto(&d.Mean),
				"jitter": probInto(&d.Jitter),
			}); err != nil {
				return ServeSpec{}, fmt.Errorf("fault: peerdelay: %w", err)
			}
			if d.Mean <= 0 {
				return ServeSpec{}, fmt.Errorf("fault: peerdelay: mean duration required")
			}
			spec.PeerDelay = d
		case "peererr":
			p := &PeerErrSpec{}
			if err := kv.apply(map[string]func(string) error{
				"p":     probInto(&p.P),
				"count": uintInto(&p.Count),
			}); err != nil {
				return ServeSpec{}, fmt.Errorf("fault: peererr: %w", err)
			}
			if p.P <= 0 && p.Count == 0 {
				return ServeSpec{}, fmt.Errorf("fault: peererr: p or count required")
			}
			spec.PeerErr = p
		default:
			return ServeSpec{}, fmt.Errorf("fault: unknown serving class %q (want diskslow, diskerr, measure, handler, peerdelay or peererr)", name)
		}
	}
	return spec, nil
}

// Empty reports whether the spec injects nothing.
func (s ServeSpec) Empty() bool {
	return s.DiskSlow == nil && s.DiskErr == nil && s.MeasureErr == nil &&
		s.Handler == nil && s.PeerDelay == nil && s.PeerErr == nil
}

// String renders the spec canonically in the ParseServe grammar.
func (s ServeSpec) String() string {
	var parts []string
	if d := s.DiskSlow; d != nil {
		parts = append(parts, fmt.Sprintf("diskslow:p=%g,mean=%s,jitter=%g", d.P, d.Mean, d.Jitter))
	}
	if d := s.DiskErr; d != nil {
		parts = append(parts, "diskerr:"+countOrP(d.Count, d.P))
	}
	if m := s.MeasureErr; m != nil {
		parts = append(parts, "measure:"+countOrP(m.Count, m.P))
	}
	if h := s.Handler; h != nil {
		parts = append(parts, fmt.Sprintf("handler:delay=%s,p=%g", h.Delay, h.P))
	}
	if d := s.PeerDelay; d != nil {
		parts = append(parts, fmt.Sprintf("peerdelay:p=%g,mean=%s,jitter=%g", d.P, d.Mean, d.Jitter))
	}
	if p := s.PeerErr; p != nil {
		parts = append(parts, "peererr:"+countOrP(p.Count, p.P))
	}
	return strings.Join(parts, ";")
}

func countOrP(count uint64, p float64) string {
	if count > 0 {
		return "count=" + strconv.FormatUint(count, 10)
	}
	return fmt.Sprintf("p=%g", p)
}

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

// Per-class salts decorrelate decision streams that share a seed.
const (
	saltDiskSlow  = 0x6469736b736c6f77 // "diskslow"
	saltDiskErr   = 0x6469736b65727221
	saltMeasure   = 0x6d65617375726521
	saltHandler   = 0x68616e646c657221
	saltPeerDelay = 0x7065657264656c61 // "peerdela"
	saltPeerErr   = 0x7065657265727221
)

// ServeInjector makes seed-deterministic serving-layer fault decisions.
// Each fault class consumes its own atomic operation counter, so the
// n-th disk read (in arrival order) always sees the same decision for a
// given (spec, seed) — concurrency changes which goroutine draws which
// index, never the schedule itself. A nil injector injects nothing.
type ServeInjector struct {
	spec ServeSpec
	seed uint64

	diskSlowSeq  atomic.Uint64
	diskErrSeq   atomic.Uint64
	measureSeq   atomic.Uint64
	handlerSeq   atomic.Uint64
	peerDelaySeq atomic.Uint64
	peerErrSeq   atomic.Uint64

	diskSlowed   *obs.Counter
	diskFailed   *obs.Counter
	measFailed   *obs.Counter
	handlerSlews *obs.Counter
	peerSlowed   *obs.Counter
	peerFailed   *obs.Counter
}

// NewServeInjector builds an injector; a nil return for an empty spec
// keeps the disabled path a single nil check. Metrics may be nil.
func NewServeInjector(spec ServeSpec, seed uint64, reg *obs.Registry) *ServeInjector {
	if spec.Empty() {
		return nil
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &ServeInjector{
		spec:         spec,
		seed:         seed,
		diskSlowed:   reg.Counter("fault.serve.diskslow"),
		diskFailed:   reg.Counter("fault.serve.diskerr"),
		measFailed:   reg.Counter("fault.serve.measure"),
		handlerSlews: reg.Counter("fault.serve.handler"),
		peerSlowed:   reg.Counter("fault.serve.peerdelay"),
		peerFailed:   reg.Counter("fault.serve.peererr"),
	}
}

// Spec returns the injector's spec (zero for nil).
func (i *ServeInjector) Spec() ServeSpec {
	if i == nil {
		return ServeSpec{}
	}
	return i.spec
}

// DiskDelay returns the injected delay for the next cache disk read
// (zero for none). The caller sleeps; the injector only decides.
func (i *ServeInjector) DiskDelay() time.Duration {
	if i == nil || i.spec.DiskSlow == nil {
		return 0
	}
	d := i.spec.DiskSlow
	n := i.diskSlowSeq.Add(1)
	h := splitmix64(i.seed ^ saltDiskSlow ^ n)
	if u01(h) >= d.P {
		return 0
	}
	// Scale the mean by a jitter factor in [1-Jitter, 1+Jitter], drawn
	// from an independent decorrelated stream.
	f := 1 + d.Jitter*(2*u01(splitmix64(h))-1)
	i.diskSlowed.Add(1)
	return time.Duration(float64(d.Mean) * f)
}

// DiskErr returns the injected failure for the next cache disk read
// (nil for none).
func (i *ServeInjector) DiskErr() error {
	if i == nil || i.spec.DiskErr == nil {
		return nil
	}
	d := i.spec.DiskErr
	n := i.diskErrSeq.Add(1)
	if !decide(i.seed, saltDiskErr, n, d.Count, d.P) {
		return nil
	}
	i.diskFailed.Add(1)
	return ErrInjectedDisk
}

// MeasureErr returns the injected failure for the next on-demand
// measurement (nil for none).
func (i *ServeInjector) MeasureErr() error {
	if i == nil || i.spec.MeasureErr == nil {
		return nil
	}
	m := i.spec.MeasureErr
	n := i.measureSeq.Add(1)
	if !decide(i.seed, saltMeasure, n, m.Count, m.P) {
		return nil
	}
	i.measFailed.Add(1)
	return ErrInjectedMeasure
}

// HandlerDelay returns the injected latency for the next request (zero
// for none).
func (i *ServeInjector) HandlerDelay() time.Duration {
	if i == nil || i.spec.Handler == nil {
		return 0
	}
	h := i.spec.Handler
	n := i.handlerSeq.Add(1)
	if u01(splitmix64(i.seed^saltHandler^n)) >= h.P {
		return 0
	}
	i.handlerSlews.Add(1)
	return h.Delay
}

// PeerDelay returns the injected delay for the next peer-fill fetch
// (zero for none). The caller sleeps; the injector only decides.
func (i *ServeInjector) PeerDelay() time.Duration {
	if i == nil || i.spec.PeerDelay == nil {
		return 0
	}
	d := i.spec.PeerDelay
	n := i.peerDelaySeq.Add(1)
	h := splitmix64(i.seed ^ saltPeerDelay ^ n)
	if u01(h) >= d.P {
		return 0
	}
	f := 1 + d.Jitter*(2*u01(splitmix64(h))-1)
	i.peerSlowed.Add(1)
	return time.Duration(float64(d.Mean) * f)
}

// PeerErr returns the injected failure for the next peer-fill fetch
// (nil for none). Fired before the request leaves the node, so it
// exercises the breaker-and-fallback path without any real peer dying.
func (i *ServeInjector) PeerErr() error {
	if i == nil || i.spec.PeerErr == nil {
		return nil
	}
	p := i.spec.PeerErr
	n := i.peerErrSeq.Add(1)
	if !decide(i.seed, saltPeerErr, n, p.Count, p.P) {
		return nil
	}
	i.peerFailed.Add(1)
	return ErrInjectedPeer
}

// decide resolves one count-or-probability fault decision: with a count
// the first count operations fire; otherwise operation n fires when its
// seeded draw lands under p.
func decide(seed, salt, n, count uint64, p float64) bool {
	if count > 0 {
		return n <= count
	}
	return u01(splitmix64(seed^salt^n)) < p
}
