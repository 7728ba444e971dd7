package guard

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestDeadlineErrorDeterministicAndIs(t *testing.T) {
	err := &DeadlineError{Endpoint: "predict", Budget: 50 * time.Millisecond}
	if want := "guard: deadline budget 50ms exceeded for predict"; err.Error() != want {
		t.Errorf("body %q, want %q", err.Error(), want)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("budget expiry must satisfy errors.Is(_, context.DeadlineExceeded)")
	}
}

func TestGuardAssemblyDefaults(t *testing.T) {
	g := New(Config{})
	if g.Admission != nil {
		t.Error("zero MaxInflight must leave admission disabled")
	}
	if g.Stale != nil {
		t.Error("zero StaleCap must leave stale serving disabled")
	}
	if g.Measure == nil || g.Disk == nil || g.Retry == nil {
		t.Fatal("breakers and retry budget must always exist")
	}
	if g.Budget() != 0 {
		t.Error("no configured deadline must read as 0")
	}

	g = New(Config{MaxInflight: 2, StaleCap: 4, Deadline: time.Second})
	if g.Admission == nil || g.Stale == nil {
		t.Fatal("configured admission/stale missing")
	}
	if g.Budget() != time.Second {
		t.Errorf("budget %v, want 1s", g.Budget())
	}

	var nilG *Guard
	if nilG.Budget() != 0 || nilG.LeaderBudget() != 0 {
		t.Error("nil Guard accessors must return zeros")
	}
}

// TestDetachSeversCancellation is the satellite-2 foundation: detached
// work survives its requester's cancellation but respects the leader
// budget.
func TestDetachSeversCancellation(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	g := New(Config{LeaderBudget: time.Hour})
	dctx, dcancel := g.Detach(parent)
	defer dcancel()
	cancel()
	select {
	case <-dctx.Done():
		t.Fatal("detached context died with its parent")
	default:
	}
	if _, ok := dctx.Deadline(); !ok {
		t.Error("leader budget did not impose a deadline")
	}

	// A nil Guard still severs cancellation, just without a budget.
	parent2, cancel2 := context.WithCancel(context.Background())
	var nilG *Guard
	dctx2, dcancel2 := nilG.Detach(parent2)
	defer dcancel2()
	cancel2()
	if dctx2.Err() != nil {
		t.Fatal("nil-guard detach died with its parent")
	}
	if _, ok := dctx2.Deadline(); ok {
		t.Error("nil guard must not impose a deadline")
	}
}

// TestDetachedLookupsDoNotAllocate: a flight looks its trace up through
// the detached context at every span it opens. The lookup finds the
// caller's trace, and allocates nothing, with and without a leader budget.
func TestDetachedLookupsDoNotAllocate(t *testing.T) {
	tr := obs.NewTrace(nil)
	parent, cancel := context.WithCancel(obs.ContextWithTrace(context.Background(), tr))
	defer cancel()
	for _, g := range []*Guard{nil, New(Config{LeaderBudget: time.Hour})} {
		dctx, dcancel := g.Detach(parent)
		if got := obs.TraceFrom(dctx); got != tr {
			t.Fatalf("detached context carries trace %p, want the caller's %p", got, tr)
		}
		if n := testing.AllocsPerRun(100, func() { obs.TraceFrom(dctx) }); n != 0 {
			t.Errorf("a trace lookup through Detach allocates %.0f times, want 0", n)
		}
		dcancel()
	}
}

func TestRetryBudgetTokenBucket(t *testing.T) {
	rb := NewRetryBudget(0.5)
	// Starts full: retryBurst retries allowed, then dry.
	for i := 0; i < retryBurst; i++ {
		if !rb.Spend() {
			t.Fatalf("bucket must start full: retry %d denied", i+1)
		}
	}
	if rb.Spend() {
		t.Fatal("empty bucket allowed a retry")
	}
	// One request credits 0.5 — still under a whole token.
	rb.OnRequest()
	if rb.Spend() {
		t.Fatal("fractional balance allowed a retry")
	}
	rb.OnRequest()
	if !rb.Spend() {
		t.Fatal("refilled bucket denied a retry")
	}
	// Refill saturates at burst: exactly retryBurst retries, and half a
	// token more is still short of one.
	for i := 0; i < 100; i++ {
		rb.OnRequest()
	}
	for i := 0; i < retryBurst; i++ {
		if !rb.Spend() {
			t.Fatalf("saturated bucket denied retry %d, want burst cap %d", i+1, retryBurst)
		}
	}
	rb.OnRequest()
	if rb.Spend() {
		t.Errorf("saturated bucket held more than the burst cap %d", retryBurst)
	}

	var nilRB *RetryBudget
	nilRB.OnRequest()
	if !nilRB.Spend() {
		t.Error("nil budget must always allow")
	}
}

func TestStaleCacheExactAndNearby(t *testing.T) {
	c := NewStaleCache(8)
	c.Put("BT.S.p4 g8 t2 b2 x1 c2", "BT.S.p4.g8", "study-a")
	c.Put("BT.S.p4 g8 t2 b2 x1 c5", "BT.S.p4.g8", "study-b")

	v, mode, ok := c.Get("BT.S.p4 g8 t2 b2 x1 c2", "BT.S.p4.g8")
	if !ok || mode != ModeStale || v != "study-a" {
		t.Fatalf("exact: (%v,%q,%v), want (study-a,stale,true)", v, mode, ok)
	}
	// Unknown exact key in a known family serves the freshest family
	// member. The exact Get above refreshed study-a, but family pointers
	// track the last Put, which was study-b.
	v, mode, ok = c.Get("BT.S.p4 g8 t9 b2 x1 c2", "BT.S.p4.g8")
	if !ok || mode != ModeStaleNearby || v != "study-b" {
		t.Fatalf("nearby: (%v,%q,%v), want (study-b,stale-nearby,true)", v, mode, ok)
	}
	if _, _, ok := c.Get("LU.S.p4 g8 t2 b2 x1 c2", "LU.S.p4.g8"); ok {
		t.Fatal("unknown family must miss")
	}
}

func TestStaleCacheEviction(t *testing.T) {
	c := NewStaleCache(2)
	c.Put("k1", "f1", 1)
	c.Put("k2", "f2", 2)
	c.Put("k3", "f3", 3) // evicts k1 (LRU)
	if _, _, ok := c.Get("k1", ""); ok {
		t.Fatal("evicted key still served")
	}
	for _, k := range []string{"k3", "k2"} {
		if _, _, ok := c.Get(k, ""); !ok {
			t.Fatalf("%s evicted, want the two newest retained", k)
		}
	}
	// The dangling family pointer for f1 must not resurrect k1.
	if _, _, ok := c.Get("other", "f1"); ok {
		t.Fatal("evicted entry served via family pointer")
	}
	// Recency: touching k2 makes k3 the eviction victim.
	c.Get("k2", "")
	c.Put("k4", "f4", 4)
	if _, _, ok := c.Get("k2", ""); !ok {
		t.Fatal("recently used k2 evicted")
	}
	if _, _, ok := c.Get("k3", ""); ok {
		t.Fatal("LRU k3 survived")
	}

	var nilC *StaleCache
	nilC.Put("k", "f", 1)
	if _, _, ok := nilC.Get("k", "f"); ok {
		t.Error("nil cache must miss")
	}
}
