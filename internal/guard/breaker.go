package guard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/timing"
)

// ErrBreakerOpen is the sentinel inside every breaker's fail-fast error:
// errors.Is(err, ErrBreakerOpen) identifies a breaker rejection without
// parsing the (deterministic, breaker-named) message.
var ErrBreakerOpen = errors.New("open (failing fast)")

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// StateClosed passes all traffic, counting consecutive failures.
	StateClosed BreakerState = iota
	// StateOpen fails fast until the cooldown elapses.
	StateOpen
	// StateHalfOpen admits one probe at a time; a probe success closes
	// the breaker, a probe failure reopens it.
	StateHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig configures one Breaker.
type BreakerConfig struct {
	// Name labels the breaker in metrics and errors ("measure", "disk").
	Name string
	// Failures is the consecutive-failure count that trips the breaker
	// (default 5).
	Failures int
	// Cooldown is the open→half-open dwell (default 5s), stretched by up
	// to jitterFrac of itself, seed-deterministically, so a fleet of
	// breakers tripped together doesn't probe in lockstep.
	Cooldown time.Duration
	// Seed drives the deterministic cooldown jitter.
	Seed uint64
	// Clock is the time source (WallClock when nil).
	Clock timing.Clock
	// Metrics receives transition counters and the state gauge; nil
	// discards them.
	Metrics *obs.Registry
}

// jitterFrac bounds a breaker's cooldown jitter as a fraction of its
// cooldown.
const jitterFrac = 0.1

// Breaker is a seeded-deterministic circuit breaker: closed→open after
// N consecutive failures, open→half-open after a cooldown whose jitter
// is a pure function of (seed, open count), half-open→closed on one
// probe success (or back to open on a probe failure). Time enters only
// through the injected Clock, so a FakeClock test can walk the full
// state machine exactly.
//
// Usage: t, err := b.Allow(); if err != nil { fail fast }; do work;
// t.Done(workErr). Ticket is a value type so the fast path allocates
// nothing.
type Breaker struct {
	name     string
	failures int
	cooldown time.Duration
	seed     uint64
	clock    timing.Clock

	errOpen error // precomputed so fail-fast allocates nothing

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	openedAt    time.Time
	opens       uint64 // completed open episodes, drives jitter
	probing     bool   // the half-open probe is out

	stateGauge *obs.Gauge
	opened     *obs.Counter
	reopened   *obs.Counter
	closed     *obs.Counter
	fastFail   *obs.Counter
	openAll    *obs.Counter
}

// Ticket is the permission to attempt one guarded call; report the
// outcome with Done. The zero Ticket (returned alongside an error) is
// inert.
type Ticket struct {
	b     *Breaker
	probe bool
	ok    bool
}

// NewBreaker builds a breaker from the config.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Failures <= 0 {
		cfg.Failures = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = timing.WallClock
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	b := &Breaker{
		name:     cfg.Name,
		failures: cfg.Failures,
		cooldown: cfg.Cooldown,
		seed:     cfg.Seed,
		clock:    cfg.Clock,
		errOpen:  fmt.Errorf("guard: %s breaker %w", cfg.Name, ErrBreakerOpen),
	}
	b.stateGauge = reg.Gauge("guard.breaker." + cfg.Name + ".state")
	b.opened = reg.Counter("guard.breaker." + cfg.Name + ".opened")
	b.reopened = reg.Counter("guard.breaker." + cfg.Name + ".reopened")
	b.closed = reg.Counter("guard.breaker." + cfg.Name + ".closed")
	b.fastFail = reg.Counter("guard.breaker." + cfg.Name + ".fastfail")
	b.openAll = reg.Counter("breaker.open")
	return b
}

// Allow asks the breaker for permission. On nil error the returned
// Ticket is live and Done must be called with the attempt's outcome; on
// error the call must fail fast (the error is deterministic per breaker
// name). Nil-safe: a nil breaker always allows with an inert ticket.
//
//kcvet:hotpath one mutex hop per guarded dependency call
func (b *Breaker) Allow() (Ticket, error) {
	if b == nil {
		return Ticket{}, nil
	}
	b.mu.Lock()
	switch b.state {
	case StateClosed:
		b.mu.Unlock()
		return Ticket{b: b, ok: true}, nil
	case StateOpen:
		if b.clock.Now().Sub(b.openedAt) < b.cooldownFor(b.opens) {
			b.mu.Unlock()
			b.fastFail.Add(1)
			return Ticket{}, b.errOpen
		}
		b.setStateLocked(StateHalfOpen)
		b.probing = false
		fallthrough
	case StateHalfOpen:
		if b.probing {
			b.mu.Unlock()
			b.fastFail.Add(1)
			return Ticket{}, b.errOpen
		}
		b.probing = true
		b.mu.Unlock()
		return Ticket{b: b, probe: true, ok: true}, nil
	}
	b.mu.Unlock()
	return Ticket{b: b, ok: true}, nil
}

// Done reports the guarded attempt's outcome. Safe on the zero Ticket.
func (t Ticket) Done(err error) {
	if !t.ok {
		return
	}
	b := t.b
	b.mu.Lock()
	if t.probe {
		b.probing = false
	}
	if err != nil {
		switch {
		case b.state == StateOpen:
			// A concurrent probe already reopened the breaker; this
			// failure adds no information.
		case t.probe || b.state == StateHalfOpen:
			// A failed probe (or a straggling closed-era failure landing
			// mid-probe) sends the breaker straight back to open.
			b.setStateLocked(StateOpen)
			b.openedAt = b.clock.Now()
			b.opens++
			b.consecFails = 0
			b.mu.Unlock()
			b.reopened.Add(1)
			b.openAll.Add(1)
			return
		case b.state == StateClosed:
			b.consecFails++
			if b.consecFails >= b.failures {
				b.setStateLocked(StateOpen)
				b.openedAt = b.clock.Now()
				b.opens++
				b.consecFails = 0
				b.mu.Unlock()
				b.opened.Add(1)
				b.openAll.Add(1)
				return
			}
		}
		b.mu.Unlock()
		return
	}
	switch {
	case t.probe && b.state == StateHalfOpen:
		b.setStateLocked(StateClosed)
		b.consecFails = 0
		b.mu.Unlock()
		b.closed.Add(1)
		return
	case b.state == StateClosed:
		b.consecFails = 0
	}
	b.mu.Unlock()
}

// Probe reports whether the ticket is a half-open probe (for span
// annotation). Safe on the zero Ticket.
func (t Ticket) Probe() bool { return t.probe }

// State returns the breaker's current position without advancing the
// state machine. Nil-safe (a nil breaker reads as closed).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return StateClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// setStateLocked flips the state and mirrors it into the gauge.
func (b *Breaker) setStateLocked(s BreakerState) {
	b.state = s
	b.stateGauge.Set(int64(s))
}

// cooldownFor returns the dwell for the numbered open episode: the base
// cooldown stretched by up to jitterFrac, deterministic in (seed,
// episode) so replays reproduce the exact probe schedule.
func (b *Breaker) cooldownFor(episode uint64) time.Duration {
	j := u01(splitmix64(b.seed ^ (episode * 0x9e3779b97f4a7c15)))
	return b.cooldown + time.Duration(float64(b.cooldown)*jitterFrac*j)
}
