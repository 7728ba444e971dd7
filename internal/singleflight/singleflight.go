// Package singleflight provides per-key call deduplication: when N
// goroutines ask for the same key while one computation is in flight, the
// first caller runs it and the rest wait for — and share — its result.
// The measurement cache uses it to collapse cold-read stampedes on one
// disk read, and the serving layer uses it to make N identical in-flight
// prediction queries cost one analysis.
//
// Unlike golang.org/x/sync/singleflight (which this repo deliberately
// does not depend on), the group is generic over both key and value, so
// callers get typed results without an interface round-trip.
package singleflight

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrLeaderPanicked is what followers receive when the leader's fn
// panicked instead of returning: the flight produced no value, and a
// zero value with a nil error would be a false success. The panic itself
// propagates to the leader's caller; only the waiters see this sentinel.
var ErrLeaderPanicked = errors.New("singleflight: leader panicked")

// Flight is the observable identity of one in-flight execution, shared
// by the leader and every follower of a key. The leader may publish a
// token — typically its request trace ID — via SetToken; followers read
// it after their wait completes, which is how a follower's trace can
// name the leader whose work it shared. The zero value is ready.
type Flight struct {
	token atomic.Value
}

// SetToken publishes the leader's token. Call it from inside the
// flight's fn; by the time any follower unblocks, the token is visible
// (the waiters' release happens-after fn returns).
func (f *Flight) SetToken(v any) {
	if f == nil {
		return
	}
	f.token.Store(v)
}

// Token returns the flight's published token, nil when the leader never
// set one. Nil-safe.
func (f *Flight) Token() any {
	if f == nil {
		return nil
	}
	return f.token.Load()
}

// call is one in-flight (or just-completed) execution.
type call[V any] struct {
	flight  Flight
	wg      sync.WaitGroup
	waiters atomic.Int32
	val     V
	err     error
}

// Group deduplicates concurrent calls by key. The zero value is ready to
// use. A Group must not be copied after first use.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*call[V]
}

// Do executes fn, making sure only one execution per key is in flight at
// a time: the first caller (the leader) runs fn, and callers arriving
// while it runs block and receive the leader's result. shared reports
// whether the caller received another goroutine's result rather than
// running fn itself. Once a flight completes, the key is forgotten — Do
// deduplicates concurrent work, it does not memoize.
//
// A panicking fn never produces a false success: the leader's waiters
// are released with the zero value and ErrLeaderPanicked, and the panic
// propagates to the leader's caller.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (v V, err error, shared bool) {
	v, err, shared, _ = g.DoFlight(key, func(*Flight) (V, error) { return fn() })
	return v, err, shared
}

// DoFlight is Do with flight observability: fn receives the Flight
// handle shared by every caller collapsed onto this execution, and the
// handle is also returned to leader and followers alike. The leader
// publishes through it (Flight.SetToken) and followers — recognizable
// by shared == true — read what it published after their wait, so a
// serving layer can record which request actually did the work a
// follower's latency was spent waiting on.
func (g *Group[K, V]) DoFlight(key K, fn func(*Flight) (V, error)) (v V, err error, shared bool, fl *Flight) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*call[V])
	}
	if c, ok := g.m[key]; ok {
		c.waiters.Add(1)
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true, &c.flight
	}
	c := new(call[V])
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	// The completion flag distinguishes a normal return from a panic
	// unwinding through the defer: if fn panicked, c.val/c.err were never
	// assigned, and releasing the waiters as-is would hand every follower
	// the zero value with a nil error — a false success. Followers get
	// the sentinel instead, and the panic keeps propagating to the
	// leader's caller (no recover here).
	completed := false
	defer func() {
		if !completed {
			var zero V
			c.val, c.err = zero, ErrLeaderPanicked
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		c.wg.Done()
	}()
	c.val, c.err = fn(&c.flight)
	completed = true
	return c.val, c.err, false, &c.flight
}

// FlightResult is one DoFlightCh outcome: the values DoFlight returns,
// delivered over a channel instead of on the caller's stack.
type FlightResult[V any] struct {
	Val    V
	Err    error
	Shared bool
	Flight *Flight
}

// DoFlightCh is DoFlight for callers that may not be able to wait: the
// flight runs on its own goroutine and the result is delivered on the
// returned channel (buffered, so an abandoned flight never blocks on a
// caller that gave up). A serving layer selects between this channel
// and its request's deadline — the computation keeps running for the
// flight's other followers even after this caller stops listening. The
// caller controls the computation's lifetime through the context
// captured by fn, not through the wait: pass fn a context detached from
// the caller's cancellation or the early-returning caller takes every
// follower's work down with it.
//
// A panic in fn is the caller's to recover, and only fn can: it runs on
// the flight's own goroutine, so a recover on the caller's stack never
// sees it, and a panic that unwinds out of fn releases the waiters with
// ErrLeaderPanicked and then ends the process, as any unrecovered
// goroutine panic does. A caller that must survive one recovers inside
// fn and returns the panic as fn's error.
func (g *Group[K, V]) DoFlightCh(key K, fn func(*Flight) (V, error)) <-chan FlightResult[V] {
	ch := make(chan FlightResult[V], 1)
	go func() {
		v, err, shared, fl := g.DoFlight(key, fn)
		ch <- FlightResult[V]{Val: v, Err: err, Shared: shared, Flight: fl}
	}()
	return ch
}

// Waiters reports how many callers are currently blocked behind the key's
// in-flight leader; zero when nothing is in flight. It is an observation
// hook for tests and metrics — the value is stale the moment it returns,
// so production code must not branch on it.
func (g *Group[K, V]) Waiters(key K) int32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.waiters.Load()
	}
	return 0
}
