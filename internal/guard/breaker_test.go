package guard

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/timing"
)

// newTestBreaker builds a breaker on a manually driven FakeClock (no
// steps: Now() returns T unchanged, tests advance T directly between
// single-goroutine calls).
func newTestBreaker(t *testing.T, reg *obs.Registry, seed uint64) (*Breaker, *timing.FakeClock) {
	t.Helper()
	fc := &timing.FakeClock{T: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{
		Name:     "measure",
		Failures: 3,
		Cooldown: time.Second,
		Seed:     seed,
		Clock:    fc,
		Metrics:  reg,
	})
	return b, fc
}

func mustAllow(t *testing.T, b *Breaker) Ticket {
	t.Helper()
	tk, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow: %v (state %s)", err, b.State())
	}
	return tk
}

func failN(t *testing.T, b *Breaker, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustAllow(t, b).Done(errors.New("boom"))
	}
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	reg := obs.NewRegistry()
	b, _ := newTestBreaker(t, reg, 1)

	failN(t, b, 2)
	if got := b.State(); got != StateClosed {
		t.Fatalf("after 2 failures: %s, want closed (threshold 3)", got)
	}
	// A success resets the consecutive count.
	mustAllow(t, b).Done(nil)
	failN(t, b, 2)
	if got := b.State(); got != StateClosed {
		t.Fatalf("success did not reset the failure count: %s", got)
	}
	failN(t, b, 1) // third consecutive
	if got := b.State(); got != StateOpen {
		t.Fatalf("after 3 consecutive failures: %s, want open", got)
	}

	// Open fails fast with the deterministic error body.
	_, err := b.Allow()
	if err == nil {
		t.Fatal("open breaker allowed a call")
	}
	if want := "guard: measure breaker open (failing fast)"; err.Error() != want {
		t.Errorf("fail-fast error %q, want %q", err.Error(), want)
	}
	if got := reg.Counter("guard.breaker.measure.opened").Value(); got != 1 {
		t.Errorf("opened counter %d, want 1", got)
	}
	if got := reg.Counter("breaker.open").Value(); got != 1 {
		t.Errorf("breaker.open counter %d, want 1", got)
	}
	if got := reg.Counter("guard.breaker.measure.fastfail").Value(); got != 1 {
		t.Errorf("fastfail counter %d, want 1", got)
	}
	if got := reg.Gauge("guard.breaker.measure.state").Value(); got != int64(StateOpen) {
		t.Errorf("state gauge %d, want %d", got, StateOpen)
	}
}

// TestBreakerFullCycle walks closed→open→half-open→closed, the cycle the
// chaos-serve gate demonstrates end to end.
func TestBreakerFullCycle(t *testing.T) {
	reg := obs.NewRegistry()
	b, fc := newTestBreaker(t, reg, 1)

	failN(t, b, 3)
	if b.State() != StateOpen {
		t.Fatalf("state %s, want open", b.State())
	}

	// Cooldown (1s) plus the jitter bound (10%) not yet elapsed: still
	// failing fast.
	fc.T = fc.T.Add(500 * time.Millisecond)
	if _, err := b.Allow(); err == nil {
		t.Fatal("breaker allowed a call inside the cooldown")
	}

	// Past cooldown+jitter: the next Allow is the half-open probe.
	fc.T = fc.T.Add(700 * time.Millisecond) // 1.2s total > 1s * 1.1
	tk, err := b.Allow()
	if err != nil {
		t.Fatalf("half-open probe denied: %v", err)
	}
	if !tk.Probe() {
		t.Error("expected a probe ticket in half-open")
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state %s, want half-open", b.State())
	}
	// Concurrent second call exceeds the probe bound.
	if _, err := b.Allow(); err == nil {
		t.Fatal("second concurrent probe allowed, bound is 1")
	}

	tk.Done(nil)
	if b.State() != StateClosed {
		t.Fatalf("after probe success: %s, want closed", b.State())
	}
	if got := reg.Counter("guard.breaker.measure.closed").Value(); got != 1 {
		t.Errorf("closed counter %d, want 1", got)
	}

	// Closed again means full traffic, fresh failure count.
	mustAllow(t, b).Done(nil)
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	reg := obs.NewRegistry()
	b, fc := newTestBreaker(t, reg, 1)

	failN(t, b, 3)
	fc.T = fc.T.Add(1200 * time.Millisecond)
	tk := mustAllow(t, b)
	if !tk.Probe() {
		t.Fatal("want probe")
	}
	tk.Done(errors.New("still broken"))
	if b.State() != StateOpen {
		t.Fatalf("after failed probe: %s, want open", b.State())
	}
	if got := reg.Counter("guard.breaker.measure.reopened").Value(); got != 1 {
		t.Errorf("reopened counter %d, want 1", got)
	}
	if got := reg.Counter("breaker.open").Value(); got != 2 {
		t.Errorf("breaker.open counter %d, want 2 (initial open + reopen)", got)
	}

	// The second cooldown runs from the reopen instant; afterwards a
	// successful probe closes it.
	fc.T = fc.T.Add(1200 * time.Millisecond)
	tk = mustAllow(t, b)
	tk.Done(nil)
	if b.State() != StateClosed {
		t.Fatalf("recovery failed: %s, want closed", b.State())
	}
}

// TestBreakerJitterDeterministic: two breakers with the same seed make
// identical open/half-open decisions at identical fake times — the
// cooldown jitter is a pure function of (seed, episode).
func TestBreakerJitterDeterministic(t *testing.T) {
	run := func(seed uint64) []bool {
		b, fc := newTestBreaker(t, nil, seed)
		failN(t, b, 3)
		var allowed []bool
		// Drive to just under the base cooldown, then sample the
		// boundary region where jitter decides the outcome.
		fc.T = fc.T.Add(990 * time.Millisecond)
		for i := 0; i < 12; i++ {
			fc.T = fc.T.Add(10 * time.Millisecond) // 1.00s .. 1.12s
			_, err := b.Allow()
			allowed = append(allowed, err == nil)
			if err == nil {
				// Keep the machine in half-open exhaustion so later
				// samples keep probing the same episode's cooldown.
				b.mu.Lock()
				b.state = StateOpen
				b.mu.Unlock()
			}
		}
		return allowed
	}
	// Drive from 990ms so the first sample lands at 1.00s.
	a1, a2 := run(42), run(42)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverged at sample %d: %v vs %v", i, a1, a2)
		}
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	tk, err := b.Allow()
	if err != nil {
		t.Fatalf("nil breaker denied: %v", err)
	}
	tk.Done(errors.New("ignored")) // must not panic
	if b.State() != StateClosed {
		t.Errorf("nil breaker state %s, want closed", b.State())
	}
}
