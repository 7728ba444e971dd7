package guard

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until true or the deadline, failing the test
// otherwise. Polling (not channels) because the conditions are internal
// controller states reached asynchronously by queued goroutines.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionBurstBoundsInflight is the satellite-3 regression: a
// concurrent burst larger than slots+queue must never push the admitted
// count past the bound, must shed the overflow as ShedError, and must
// leave zero goroutines behind once drained.
func TestAdmissionBurstBoundsInflight(t *testing.T) {
	before := runtime.NumGoroutine()
	const (
		maxInflight = 4
		depth       = 8
		burst       = 64
	)
	a := NewAdmission(maxInflight, depth, nil, nil)

	var (
		inflight    atomic.Int64
		maxObserved atomic.Int64
		admitted    atomic.Int64
		shed        atomic.Int64
		wg          sync.WaitGroup
	)
	release := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := a.Acquire(context.Background())
			if err != nil {
				var se *ShedError
				if !errors.As(err, &se) {
					t.Errorf("Acquire: got %v, want *ShedError", err)
				} else if se.RetryAfter < 1 {
					t.Errorf("Retry-After %d, want >= 1", se.RetryAfter)
				}
				shed.Add(1)
				return
			}
			n := inflight.Add(1)
			for {
				m := maxObserved.Load()
				if n <= m || maxObserved.CompareAndSwap(m, n) {
					break
				}
			}
			admitted.Add(1)
			<-release
			inflight.Add(-1)
			a.Release(time.Millisecond)
		}()
	}

	// Let the burst settle: everyone is either admitted, queued, or shed.
	waitFor(t, "burst settled", func() bool {
		return admitted.Load()+int64(a.Queued())+shed.Load() == burst
	})
	close(release)
	wg.Wait()

	if got := maxObserved.Load(); got > maxInflight {
		t.Errorf("observed %d concurrent admitted requests, bound is %d", got, maxInflight)
	}
	if got := admitted.Load(); got != maxInflight+depth {
		t.Errorf("admitted %d requests, want %d (slots+queue)", got, maxInflight+depth)
	}
	if got := shed.Load(); got != burst-maxInflight-depth {
		t.Errorf("shed %d requests, want %d", got, burst-maxInflight-depth)
	}
	if a.Inflight() != 0 || a.Queued() != 0 {
		t.Errorf("after drain: inflight=%d queued=%d, want 0/0", a.Inflight(), a.Queued())
	}

	// Zero goroutine leak after drain (allow the runtime a moment to
	// retire exiting goroutines).
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	})
}

// TestAdmissionFIFOOrder queues waiters one at a time and releases slots
// one at a time: grants must come back in enqueue order.
func TestAdmissionFIFOOrder(t *testing.T) {
	a := NewAdmission(1, 4, nil, nil)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("holder Acquire: %v", err)
	}

	const waiters = 4
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Acquire(context.Background()); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			a.Release(0)
		}()
		// Admit to the queue strictly one at a time so enqueue order is
		// the spawn order.
		waitFor(t, "waiter queued", func() bool { return a.Queued() == i+1 })
	}

	a.Release(0) // hand the holder's slot down the queue
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want FIFO 0..%d", order, waiters-1)
		}
	}
}

// TestAdmissionTryAcquireNeverQueues: TryAcquire takes a free slot, and
// with none free it refuses without queueing or shedding; a slot released
// while a waiter queues goes to the waiter, not to a TryAcquire.
func TestAdmissionTryAcquireNeverQueues(t *testing.T) {
	a := NewAdmission(1, 4, nil, nil)
	if !a.TryAcquire() {
		t.Fatal("TryAcquire refused a free slot")
	}
	if a.TryAcquire() {
		t.Fatal("TryAcquire admitted past the bound")
	}
	if q := a.Queued(); q != 0 {
		t.Fatalf("a refused TryAcquire queued: %d waiting", q)
	}
	granted := make(chan error, 1)
	go func() { granted <- a.Acquire(context.Background()) }()
	waitFor(t, "waiter queued", func() bool { return a.Queued() == 1 })
	if a.TryAcquire() {
		t.Fatal("TryAcquire admitted past the bound with a waiter queued")
	}
	a.Release(0) // the waiter gets the slot
	if err := <-granted; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	if a.TryAcquire() {
		t.Fatal("TryAcquire admitted while the waiter holds the slot")
	}
	a.Release(0)
	if !a.TryAcquire() {
		t.Fatal("TryAcquire refused the slot the waiter released")
	}
	a.Release(0)
	if n := a.Inflight(); n != 0 {
		t.Fatalf("inflight = %d after every release, want 0", n)
	}
}

// TestAdmissionQueueFullSheds fills slots and queue, then asserts the
// next request sheds with the deterministic queue-full reason.
func TestAdmissionQueueFullSheds(t *testing.T) {
	a := NewAdmission(1, 1, nil, nil)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("holder: %v", err)
	}
	// Occupy the single queue slot; release once granted so the drain
	// check below can reach zero.
	go func() {
		if err := a.Acquire(context.Background()); err == nil {
			a.Release(0)
		}
	}()
	waitFor(t, "queue occupied", func() bool { return a.Queued() == 1 })

	err := a.Acquire(context.Background())
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *ShedError", err)
	}
	if se.Reason != "queue full" {
		t.Errorf("reason %q, want %q", se.Reason, "queue full")
	}
	if want := "guard: request shed (queue full), retry after 1s"; se.Error() != want {
		t.Errorf("error body %q, want deterministic %q", se.Error(), want)
	}
	a.Release(0) // drain: grants the queued waiter, which releases itself
	waitFor(t, "drain", func() bool { return a.Inflight() == 0 && a.Queued() == 0 })
}

// TestAdmissionDeadlineAwareShed: once the expected service time is
// known, a saturated controller sheds a request whose deadline can't
// cover it immediately — no pointless queueing.
func TestAdmissionDeadlineAwareShed(t *testing.T) {
	a := NewAdmission(1, 8, nil, nil)
	a.SeedExpected(time.Hour)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("holder: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err := a.Acquire(ctx)
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *ShedError", err)
	}
	if se.Reason != "insufficient deadline budget" {
		t.Errorf("reason %q, want %q", se.Reason, "insufficient deadline budget")
	}
	if a.Queued() != 0 {
		t.Errorf("queued %d, want 0 (shed must not enqueue)", a.Queued())
	}

	// A request without a deadline still queues normally.
	done := make(chan error, 1)
	go func() { done <- a.Acquire(context.Background()) }()
	waitFor(t, "undeadlined waiter queued", func() bool { return a.Queued() == 1 })
	a.Release(0)
	if err := <-done; err != nil {
		t.Fatalf("undeadlined waiter: %v", err)
	}
	a.Release(0)
}

// TestAdmissionAbandonedWaiter: a queued request whose context fires
// returns its context error, and a later release skips the corpse.
func TestAdmissionAbandonedWaiter(t *testing.T) {
	a := NewAdmission(1, 4, nil, nil)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("holder: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- a.Acquire(ctx) }()
	waitFor(t, "waiter queued", func() bool { return a.Queued() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned waiter got %v, want context.Canceled", err)
	}

	// A live waiter behind the corpse still gets the slot.
	live := make(chan error, 1)
	go func() { live <- a.Acquire(context.Background()) }()
	waitFor(t, "live waiter queued", func() bool { return a.Queued() == 2 })
	a.Release(0)
	if err := <-live; err != nil {
		t.Fatalf("live waiter got %v, want grant", err)
	}
	if a.Inflight() != 1 {
		t.Errorf("inflight %d, want 1 (slot handed over exactly once)", a.Inflight())
	}
	a.Release(0)
}

// TestAdmissionEWMA pins the expected-service-time estimate update rule.
func TestAdmissionEWMA(t *testing.T) {
	a := NewAdmission(1, 1, nil, nil)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.Release(100 * time.Millisecond)
	if got := a.Expected(); got != 100*time.Millisecond {
		t.Fatalf("first observation: %v, want 100ms", got)
	}
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.Release(200 * time.Millisecond)
	if got := a.Expected(); got != 120*time.Millisecond {
		t.Fatalf("EWMA after 100ms,200ms: %v, want 120ms (alpha=0.2)", got)
	}
}
