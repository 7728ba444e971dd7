// Package fault is a deterministic, seed-driven fault injector with two
// sets of hooks: the simulated MPI world (message delay, message drop with
// bounded resend, straggler ranks, collective slowdown, rank crash) and
// the query service (slow or failing cache disk reads, failing on-demand
// measurements, handler latency, slow or failing peer fetches). One
// grammar describes both; a Spec says which classes are active. Every
// individual fault decision derives purely from the seed and the
// operation's coordinates, never from wall time or global randomness, so
// a fault schedule is byte-for-byte reproducible under the same seed no
// matter how the scheduler interleaves ranks or requests.
//
// The world hooks implement mpi.Injector; attach an Injector with
// mpi.WithInjector(inj). The serving hooks are a ServeInjector's methods.
// With no injector attached the runtime pays one nil check per operation.
package fault

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/mpi"
)

// Hooks names the set of injection sites a fault class belongs to, and so
// the commands whose -fault-spec takes it.
type Hooks int

const (
	// World is the simulated MPI world (mpi.Injector): couple and npbrun.
	World Hooks = iota
	// Serving is the query service (ServeInjector): kcserved.
	Serving
)

// commands names, per hook set, the commands whose -fault-spec takes it.
var commands = [...]string{World: "couple and npbrun", Serving: "kcserved"}

// Usage is the -fault-spec help text of the commands that take hook set h.
func (h Hooks) Usage() string {
	return "clauses class:key=value,... joined by ';', one per class (classes: " + h.names() + ")"
}

// names lists hook set h's class names.
func (h Hooks) names() string {
	var names []string
	for _, c := range classes {
		if c.hooks == h {
			names = append(names, c.name)
		}
	}
	return strings.Join(names, ", ")
}

// DelaySpec is a jittered delay: each operation is, with probability P,
// delayed by Mean scaled by a deterministic jitter factor in
// [1-Jitter, 1+Jitter]. It is the shape of delay (point-to-point
// messages), diskslow (cache disk reads) and peerdelay (peer-fill
// fetches — a slow but alive peer).
type DelaySpec struct {
	P      float64
	Mean   time.Duration
	Jitter float64
}

// FailSpec is a count-or-probability failure: with Count > 0 exactly the
// first Count operations fail (a deterministic burst — how the chaos gates
// open a breaker on schedule and watch it recover); otherwise each fails
// with probability P. It is the shape of diskerr (cache disk reads),
// measure (on-demand measurements) and peererr (peer-fill fetches, failed
// before they leave the node).
type FailSpec struct {
	P     float64
	Count uint64
}

// FixedDelaySpec is a probabilistic fixed delay: each operation is, with
// probability P, delayed by Delay. It is the shape of handler (request
// handlers); CollectiveSpec adds the collective it applies to.
type FixedDelaySpec struct {
	P     float64
	Delay time.Duration
}

// CollectiveSpec slows collective entries down: each entry into a matching
// collective (Op is one of mpi.Collectives, or "*" for all) is, with
// probability P, delayed by Delay.
type CollectiveSpec struct {
	Op string
	FixedDelaySpec
}

// DropSpec drops point-to-point transmission attempts: each attempt is
// dropped with probability P; the p2p layer transparently resends up to
// Resend times, each resend paying Backoff·2^attempt of exponential
// backoff (accumulated into the message's delivery delay). A message whose
// every attempt is dropped is lost and fails the world with a structured
// error.
type DropSpec struct {
	P       float64
	Resend  int
	Backoff time.Duration
}

// StragglerSpec slows the listed ranks down: every runtime operation the
// rank performs (send, receive, collective entry) pays Delay before
// proceeding.
type StragglerSpec struct {
	Ranks []int
	Delay time.Duration
}

// CrashSpec kills one rank: the rank's At-th runtime operation panics. The
// panic is recovered by the runtime and surfaces as a structured rank
// failure; the crash fires at most once per Injector, so a harness retry
// of the affected measurement proceeds past it.
type CrashSpec struct {
	Rank int
	At   uint64
}

// Spec is a parsed fault specification: which classes are active and with
// what parameters. The zero Spec injects nothing.
type Spec struct {
	// The World classes.
	Delay      *DelaySpec
	Drop       *DropSpec
	Straggler  *StragglerSpec
	Collective *CollectiveSpec
	Crash      *CrashSpec
	// The Serving classes.
	DiskSlow   *DelaySpec
	DiskErr    *FailSpec
	MeasureErr *FailSpec
	Handler    *FixedDelaySpec
	PeerDelay  *DelaySpec
	PeerErr    *FailSpec
}

// The classes' places in the table, which also index a ServeInjector's
// streams.
const (
	cDelay = iota
	cDrop
	cStraggler
	cCollective
	cCrash
	cDiskSlow
	cDiskErr
	cMeasure
	cHandler
	cPeerDelay
	cPeerErr
	nClasses
)

// class is one entry of the grammar: a name, the hook set it belongs to,
// and its field of Spec, whose type is its parameter shape.
type class struct {
	name  string
	hooks Hooks
	// get returns the class's value in a spec, nil when it is not set.
	get func(*Spec) shape
	// set gives the class its defaults in a spec and returns the value.
	set func(*Spec) shape
}

// newClass makes the table entry of a class whose Spec field is the one
// field returns the address of, and whose parameters default to defaults.
func newClass[T any, P interface {
	*T
	shape
}](name string, hooks Hooks, field func(*Spec) *P, defaults T) class {
	return class{
		name:  name,
		hooks: hooks,
		get: func(s *Spec) shape {
			if p := *field(s); p != nil {
				return p
			}
			return nil
		},
		set: func(s *Spec) shape {
			p := P(new(T))
			*p = defaults
			*field(s) = p
			return p
		},
	}
}

// classes is the grammar, in the order String renders a spec's classes.
var classes = [nClasses]class{
	cDelay: newClass("delay", World, func(s *Spec) **DelaySpec { return &s.Delay },
		DelaySpec{P: 1, Jitter: 0.5}),
	cDrop: newClass("drop", World, func(s *Spec) **DropSpec { return &s.Drop },
		DropSpec{Resend: 3, Backoff: 200 * time.Microsecond}),
	cStraggler: newClass("straggler", World, func(s *Spec) **StragglerSpec { return &s.Straggler },
		StragglerSpec{}),
	cCollective: newClass("collective", World, func(s *Spec) **CollectiveSpec { return &s.Collective },
		CollectiveSpec{Op: "*", FixedDelaySpec: FixedDelaySpec{P: 1}}),
	cCrash: newClass("crash", World, func(s *Spec) **CrashSpec { return &s.Crash },
		CrashSpec{}),
	cDiskSlow: newClass("diskslow", Serving, func(s *Spec) **DelaySpec { return &s.DiskSlow },
		DelaySpec{P: 1, Jitter: 0.5}),
	cDiskErr: newClass("diskerr", Serving, func(s *Spec) **FailSpec { return &s.DiskErr },
		FailSpec{}),
	cMeasure: newClass("measure", Serving, func(s *Spec) **FailSpec { return &s.MeasureErr },
		FailSpec{}),
	cHandler: newClass("handler", Serving, func(s *Spec) **FixedDelaySpec { return &s.Handler },
		FixedDelaySpec{P: 1}),
	cPeerDelay: newClass("peerdelay", Serving, func(s *Spec) **DelaySpec { return &s.PeerDelay },
		DelaySpec{P: 1, Jitter: 0.5}),
	cPeerErr: newClass("peererr", Serving, func(s *Spec) **FailSpec { return &s.PeerErr },
		FailSpec{}),
}

// Parse parses the -fault-spec grammar:
//
//	spec  := class (";" class)*
//	class := name ":" key "=" value ("," key "=" value)*
//
// Classes and their keys (durations use Go syntax, e.g. 500us, 2ms):
//
//	delay:p=<0..1>,mean=<dur>[,jitter=<0..1>]        message delay (p default 1, jitter default 0.5)
//	drop:p=<0..1>[,resend=<n>][,backoff=<dur>]       message drop (resend default 3, backoff default 200us)
//	straggler:ranks=<r[+r...]>,delay=<dur>           per-rank slowdown
//	collective:delay=<dur>[,op=<name|*>][,p=<0..1>]  collective slowdown (op default *, p default 1)
//	crash:rank=<r>[,at=<opindex>]                    rank crash (at default 0)
//	diskslow:p=<0..1>,mean=<dur>[,jitter=<0..1>]     slow cache disk reads (defaults as delay)
//	diskerr:p=<0..1>|count=<n>                       failing cache disk reads
//	measure:p=<0..1>|count=<n>                       failing on-demand measurements
//	handler:delay=<dur>[,p=<0..1>]                   handler latency (p default 1)
//	peerdelay:p=<0..1>,mean=<dur>[,jitter=<0..1>]    slow peer-fill fetches (defaults as delay)
//	peererr:p=<0..1>|count=<n>                       failing peer-fill fetches
//
// The first five are World classes, the rest Serving ones; Parse takes
// both, and Only says whether a spec suits one command. count=<n> fails
// exactly the first n operations. A blank spec is no faults; a spec with
// text but no clause, a class given twice, or a parameter given twice is
// an error.
//
// Example: "delay:p=0.2,mean=200us;straggler:ranks=1,delay=50us".
func Parse(s string) (Spec, error) {
	var spec Spec
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, _ := strings.Cut(clause, ":")
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(classes[:], func(c class) bool { return c.name == name })
		if i < 0 {
			return Spec{}, fmt.Errorf("fault: unknown class %q (%s take %s; %s takes %s)",
				name, commands[World], World.names(), commands[Serving], Serving.names())
		}
		c := classes[i]
		if c.get(&spec) != nil {
			return Spec{}, fmt.Errorf("fault: %s: class given twice", name)
		}
		if err := parseParams(c.set(&spec), rest); err != nil {
			return Spec{}, fmt.Errorf("fault: %s: %w", name, err)
		}
	}
	if spec.Empty() && strings.TrimSpace(s) != "" {
		return Spec{}, fmt.Errorf("fault: spec %q has no class clause", s)
	}
	return spec, nil
}

// Only returns an error naming the first class the spec sets outside hook
// set h and the command that takes it; nil when there is none.
func (s Spec) Only(h Hooks) error {
	for _, c := range classes {
		if c.hooks != h && c.get(&s) != nil {
			return fmt.Errorf("fault: class %q is for the -fault-spec of %s", c.name, commands[c.hooks])
		}
	}
	return nil
}

// Empty reports whether the spec injects nothing: it sets a class of
// neither hook set.
func (s Spec) Empty() bool { return s.Only(World) == nil && s.Only(Serving) == nil }

// String renders the spec canonically in the Parse grammar (classes in a
// fixed order, every parameter explicit), so manifests record exactly what
// was active.
func (s Spec) String() string {
	var clauses []string
	for _, c := range classes {
		v := c.get(&s)
		if v == nil {
			continue
		}
		var kvs []string
		for _, p := range v.params() {
			if !p.hide {
				kvs = append(kvs, p.key+"="+p.String())
			}
		}
		clauses = append(clauses, c.name+":"+strings.Join(kvs, ","))
	}
	return strings.Join(clauses, ";")
}

// shape is one parameter layout: params lists its keys, bound to the
// fields they set, in the order String renders them.
type shape interface {
	params() []param
}

// param is one key of a shape, bound to the field it sets. The field's
// type says how a value parses: a *float64 is a probability, a
// *time.Duration a non-negative duration, an *int or a *uint64 a
// non-negative integer, a *[]int a '+'-joined list of ranks, a *string
// one of mpi.Collectives or "*". A clause must give a needed key, and a
// needed probability or duration must be positive. hide leaves the key
// out of String.
type param struct {
	key  string
	ptr  any
	need bool
	hide bool
}

func (d *DelaySpec) params() []param {
	return []param{{key: "p", ptr: &d.P}, {key: "mean", ptr: &d.Mean, need: true}, {key: "jitter", ptr: &d.Jitter}}
}

// params renders a FailSpec as what decides it: its count when it has
// one, its probability otherwise.
func (f *FailSpec) params() []param {
	return []param{{key: "p", ptr: &f.P, hide: f.Count > 0}, {key: "count", ptr: &f.Count, hide: f.Count == 0}}
}

func (f *FixedDelaySpec) params() []param {
	return []param{{key: "delay", ptr: &f.Delay, need: true}, {key: "p", ptr: &f.P}}
}

func (c *CollectiveSpec) params() []param {
	return []param{{key: "op", ptr: &c.Op}, {key: "p", ptr: &c.P}, {key: "delay", ptr: &c.Delay, need: true}}
}

func (d *DropSpec) params() []param {
	return []param{{key: "p", ptr: &d.P, need: true}, {key: "resend", ptr: &d.Resend}, {key: "backoff", ptr: &d.Backoff}}
}

func (s *StragglerSpec) params() []param {
	return []param{{key: "ranks", ptr: &s.Ranks, need: true}, {key: "delay", ptr: &s.Delay, need: true}}
}

func (c *CrashSpec) params() []param {
	return []param{{key: "rank", ptr: &c.Rank, need: true}, {key: "at", ptr: &c.At}}
}

// parseParams sets v's parameters from a clause's key=value list.
func parseParams(v shape, s string) error {
	ps := v.params()
	seen := map[string]bool{}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		k, val, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("parameter %q: want key=value", pair)
		}
		k, val = strings.TrimSpace(k), strings.TrimSpace(val)
		if seen[k] {
			return fmt.Errorf("duplicate parameter %q", k)
		}
		seen[k] = true
		i := slices.IndexFunc(ps, func(p param) bool { return p.key == k })
		if i < 0 {
			keys := make([]string, len(ps))
			for j, p := range ps {
				keys[j] = p.key
			}
			return fmt.Errorf("unknown parameter %q (want %s)", k, strings.Join(keys, ", "))
		}
		if err := ps[i].set(val); err != nil {
			return fmt.Errorf("parameter %s=%q: %w", k, val, err)
		}
	}
	// A clause with no key fails below: every shape needs one.
	for _, p := range ps {
		if p.need && !seen[p.key] {
			return fmt.Errorf("%s required", p.key)
		}
	}
	if f, ok := v.(*FailSpec); ok && f.P == 0 && f.Count == 0 {
		return errors.New("p or count required")
	}
	return nil
}

// set parses v into the parameter's field.
func (p param) set(v string) error {
	switch dst := p.ptr.(type) {
	case *float64:
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("probability %g outside [0,1]", f)
		}
		if p.need && f == 0 {
			return errors.New("zero probability")
		}
		*dst = f
	case *time.Duration:
		d, err := time.ParseDuration(v)
		if err != nil {
			return err
		}
		if d < 0 {
			return fmt.Errorf("negative duration %s", d)
		}
		if p.need && d == 0 {
			return errors.New("zero duration")
		}
		*dst = d
	case *int:
		n, err := strconv.ParseUint(v, 10, 31)
		if err != nil {
			return err
		}
		*dst = int(n)
	case *uint64:
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return err
		}
		*dst = n
	case *[]int:
		var ranks []int
		for _, part := range strings.Split(v, "+") {
			n, err := strconv.ParseUint(strings.TrimSpace(part), 10, 31)
			if err != nil {
				return err
			}
			ranks = append(ranks, int(n))
		}
		slices.Sort(ranks)
		*dst = ranks
	case *string:
		if v != "*" && !slices.Contains(mpi.Collectives, v) {
			return fmt.Errorf("not a collective (want * or one of %s)", strings.Join(mpi.Collectives, ", "))
		}
		*dst = v
	}
	return nil
}

// String renders the parameter's value as set parses it.
func (p param) String() string {
	switch v := p.ptr.(type) {
	case *float64:
		return strconv.FormatFloat(*v, 'g', -1, 64)
	case *time.Duration:
		return v.String()
	case *int:
		return strconv.Itoa(*v)
	case *uint64:
		return strconv.FormatUint(*v, 10)
	case *[]int:
		rs := make([]string, len(*v))
		for i, r := range *v {
			rs[i] = strconv.Itoa(r)
		}
		return strings.Join(rs, "+")
	}
	return *p.ptr.(*string)
}
