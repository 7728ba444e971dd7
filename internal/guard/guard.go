// Package guard is the serving layer's overload- and failure-hardening
// kit: per-request deadline budgets, an admission controller with a
// bounded deadline-aware queue, circuit breakers around the dependencies
// that can brown out (on-demand measurement, cache disk reads), a
// token-bucket retry budget so retries never amplify overload, and a
// stale-answer cache backing the serving degradation ladder (full answer
// → stale-or-nearby cached answer → shed).
//
// Everything here follows the repo's determinism discipline: error
// bodies are deterministic strings (no elapsed times), breaker cooldown
// jitter derives from a seed via splitmix64 rather than global
// randomness, and time enters only through an injectable timing.Clock so
// tests pin state machines exactly. Every decision is observable: shed
// and breaker transitions land on obs counters and gauges, and the wait
// a request spends queued is attributed by the serving layer as a
// guard.queue span.
package guard

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/timing"
)

// Config assembles a Guard. The zero value of any knob picks that
// feature's default; a zero MaxInflight disables admission control and a
// zero StaleCap disables the degradation ladder, so callers opt into
// exactly the hardening they want.
type Config struct {
	// Deadline is the per-request budget for every query endpoint; zero
	// means no deadline.
	Deadline time.Duration
	// LeaderBudget bounds detached work: a singleflight leader (and the
	// on-demand measurement it may run) keeps going after its own caller
	// gives up, but never past this budget. Zero leaves detached work
	// unbounded.
	LeaderBudget time.Duration

	// MaxInflight bounds concurrently admitted query requests; zero
	// disables admission control entirely.
	MaxInflight int
	// QueueDepth bounds how many requests may wait for an admission
	// slot; beyond it requests shed immediately (default 2×MaxInflight).
	QueueDepth int

	// BreakerFailures is the consecutive-failure count that opens a
	// breaker (default 5).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker fails fast before
	// allowing its half-open probe (default 5s).
	BreakerCooldown time.Duration

	// RetryRatio is the retry-budget refill per observed request
	// (default 0.1: one retry token per ten requests).
	RetryRatio float64

	// StaleCap bounds the stale-answer cache behind the degradation
	// ladder; zero disables stale serving.
	StaleCap int

	// Seed drives the deterministic parts (breaker cooldown jitter).
	Seed uint64
	// Clock is the time source (WallClock when nil); tests inject a
	// timing.FakeClock to pin breaker and queue state machines.
	Clock timing.Clock
	// Metrics receives guard counters and gauges; nil disables them.
	Metrics *obs.Registry
}

// Guard is the assembled serving-layer protection: consult Budget per
// request, Admission around handler execution, the breakers around the
// fragile dependencies, Retry before any serving-side retry, and Stale
// when the full answer fails.
type Guard struct {
	deadline time.Duration
	leader   time.Duration

	// Admission is the bounded-concurrency controller; nil when
	// MaxInflight was zero.
	Admission *Admission
	// Measure guards on-demand measurement; Disk guards cache disk
	// reads. Always non-nil on a non-nil Guard.
	Measure *Breaker
	Disk    *Breaker
	// Retry is the token-bucket retry budget. Always non-nil.
	Retry *RetryBudget
	// Stale is the degradation ladder's answer cache; nil when StaleCap
	// was zero.
	Stale *StaleCache
}

// New assembles a Guard from the config.
func New(cfg Config) *Guard {
	clock := cfg.Clock
	if clock == nil {
		clock = timing.WallClock
	}
	g := &Guard{
		deadline: cfg.Deadline,
		leader:   cfg.LeaderBudget,
		Retry:    NewRetryBudget(cfg.RetryRatio),
	}
	if cfg.MaxInflight > 0 {
		depth := cfg.QueueDepth
		if depth <= 0 {
			depth = 2 * cfg.MaxInflight
		}
		g.Admission = NewAdmission(cfg.MaxInflight, depth, clock, cfg.Metrics)
	}
	mk := func(name string) *Breaker {
		return NewBreaker(BreakerConfig{
			Name:     name,
			Failures: cfg.BreakerFailures,
			Cooldown: cfg.BreakerCooldown,
			Seed:     cfg.Seed,
			Clock:    clock,
			Metrics:  cfg.Metrics,
		})
	}
	g.Measure = mk("measure")
	g.Disk = mk("disk")
	if cfg.StaleCap > 0 {
		g.Stale = NewStaleCache(cfg.StaleCap)
	}
	return g
}

// Budget returns the deadline budget of a query request; zero means no
// deadline. Nil-safe.
//
//kcvet:hotpath consulted once per request on the /predict warm path
func (g *Guard) Budget() time.Duration {
	if g == nil {
		return 0
	}
	return g.deadline
}

// LeaderBudget returns the detached-leader budget (zero = unbounded).
// Nil-safe.
func (g *Guard) LeaderBudget() time.Duration {
	if g == nil {
		return 0
	}
	return g.leader
}

// Detach returns a context for work that must outlive its requesting
// caller — a singleflight leader measuring on demand — carrying the
// caller's values (trace attribution included) but not its cancellation,
// bounded by the leader budget when one is configured. Nil-safe: a nil
// Guard still severs cancellation, it just leaves the work unbounded.
func (g *Guard) Detach(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx = &detached{parent: ctx}
	if b := g.LeaderBudget(); b > 0 {
		return context.WithTimeout(ctx, b)
	}
	return ctx, func() {}
}

// detached is context.WithoutCancel with a pointer receiver: no
// deadline, no Done channel, no error, and every value of its parent.
// WithoutCancel's context is a value type whose Value boxes a copy of
// itself on every lookup that starts at it, and a flight's trace lookups
// start there. One difference: context.Cause on a detached context
// reports the parent's cause, where WithoutCancel's reports nil. Cause
// means something only once Done is closed, and this Done never is.
type detached struct{ parent context.Context }

func (*detached) Deadline() (time.Time, bool) { return time.Time{}, false }
func (*detached) Done() <-chan struct{}       { return nil }
func (*detached) Err() error                  { return nil }
func (d *detached) Value(key any) any         { return d.parent.Value(key) }

// DeadlineError is the deterministic 504 cause: the same budget always
// renders the same bytes, so deadline-exceeded bodies are byte-stable
// across runs (no measured elapsed time leaks into the response).
type DeadlineError struct {
	// Endpoint names the handler whose budget ran out.
	Endpoint string
	// Budget is the configured deadline that was exceeded.
	Budget time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("guard: deadline budget %s exceeded for %s", e.Budget, e.Endpoint)
}

// Is makes errors.Is(err, context.DeadlineExceeded) true, so callers can
// branch on the standard sentinel.
func (e *DeadlineError) Is(target error) bool {
	return target == context.DeadlineExceeded
}

// splitmix64 is the SplitMix64 finalizer (same construction the fault
// injector uses): a bijective avalanche over uint64.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u01 maps a hash to [0,1) with 53 bits of precision.
func u01(h uint64) float64 { return float64(h>>11) / (1 << 53) }
