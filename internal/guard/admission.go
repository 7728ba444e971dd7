package guard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/timing"
)

// ShedError is the deterministic 503 cause: the serving layer maps it to
// 503 with a Retry-After header. Reason is a fixed string per shed class
// so bodies stay byte-stable; RetryAfter is derived from the controller's
// load estimate, never from a wall-clock reading of this request.
type ShedError struct {
	// Reason is the shed class: "queue full" or "insufficient deadline
	// budget".
	Reason string
	// RetryAfter is the suggested client backoff in whole seconds (>= 1).
	RetryAfter int
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("guard: request shed (%s), retry after %ds", e.Reason, e.RetryAfter)
}

// ewmaAlpha weights the newest observed service time at 20% — smooth
// enough to ride out one slow request, fresh enough to track a brownout.
const ewmaAlpha = 0.2

// Admission bounds concurrently admitted requests and queues the
// overflow FIFO, bounded and deadline-aware: a request whose remaining
// budget cannot cover the expected service time sheds immediately
// instead of waiting for a slot it could never use, and a full queue
// sheds with a load-derived Retry-After.
//
// Slot transfer is direct hand-off: Release picks the oldest live waiter
// and passes the slot without ever decrementing the in-flight count, so
// the bound can't be overshot and ordering is FIFO among waiters that
// are still interested. A waiter whose context fires marks itself
// abandoned under the same mutex; if the hand-off already happened it
// re-releases the slot so nothing leaks.
type Admission struct {
	max   int
	depth int
	clock timing.Clock

	mu       sync.Mutex
	inflight int
	queue    []*waiter
	ewmaNs   float64

	inflightGauge *obs.Gauge
	queueGauge    *obs.Gauge
	admitted      *obs.Counter
	queued        *obs.Counter
	shedFull      *obs.Counter
	shedBudget    *obs.Counter
}

type waiter struct {
	ready     chan struct{}
	granted   bool
	abandoned bool
}

// NewAdmission builds a controller admitting max requests with a
// depth-bounded wait queue. Metrics may be nil.
func NewAdmission(max, depth int, clock timing.Clock, reg *obs.Registry) *Admission {
	if clock == nil {
		clock = timing.WallClock
	}
	if reg == nil {
		// Counter/Gauge methods are not nil-safe; a private discard
		// registry keeps the hot paths branch-free.
		reg = obs.NewRegistry()
	}
	a := &Admission{max: max, depth: depth, clock: clock}
	a.inflightGauge = reg.Gauge("guard.admission.inflight")
	a.queueGauge = reg.Gauge("guard.admission.queued")
	a.admitted = reg.Counter("guard.admission.admitted")
	a.queued = reg.Counter("guard.admission.waited")
	a.shedFull = reg.Counter("guard.shed.queue_full")
	a.shedBudget = reg.Counter("guard.shed.deadline_budget")
	return a
}

// Acquire claims an admission slot, waiting in FIFO order when the
// service is saturated. It returns nil once admitted; a *ShedError when
// the request should be rejected with 503 (queue full, or its deadline
// budget cannot cover the expected service time); or ctx.Err() when the
// context fires while queued. Every nil return must be paired with one
// Release.
func (a *Admission) Acquire(ctx context.Context) error {
	a.mu.Lock()
	if a.grantLocked() {
		return nil
	}
	// Saturated. Shed now if this request could never finish in budget:
	// expected wait for a slot plus expected service must fit in the
	// remaining deadline.
	if dl, ok := ctx.Deadline(); ok {
		if need := a.expectedLatencyLocked(); need > 0 &&
			a.clock.Now().Add(need).After(dl) {
			ra := a.retryAfterLocked()
			a.mu.Unlock()
			a.shedBudget.Add(1)
			return &ShedError{Reason: "insufficient deadline budget", RetryAfter: ra}
		}
	}
	if len(a.queue) >= a.depth {
		ra := a.retryAfterLocked()
		a.mu.Unlock()
		a.shedFull.Add(1)
		return &ShedError{Reason: "queue full", RetryAfter: ra}
	}
	w := &waiter{ready: make(chan struct{})}
	a.queue = append(a.queue, w)
	qg := a.queueGauge
	qv := int64(len(a.queue))
	a.mu.Unlock()
	qg.Set(qv)
	a.queued.Add(1)

	select {
	case <-w.ready:
		a.admitted.Add(1)
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// Hand-off raced our give-up: we own a slot we'll never
			// use — pass it straight on.
			a.releaseSlotLocked()
			a.mu.Unlock()
		} else {
			w.abandoned = true
			a.mu.Unlock()
		}
		return ctx.Err()
	}
}

// TryAcquire claims an admission slot when one is free and no request
// queues for it, without waiting, shedding or looking at a context; false
// means Acquire would queue or shed. A caller that has a deadline to arm
// for a wait arms it only after a false return. Every true return must
// be paired with one Release.
func (a *Admission) TryAcquire() bool {
	a.mu.Lock()
	if a.grantLocked() {
		return true
	}
	a.mu.Unlock()
	return false
}

// grantLocked admits the caller when a slot is free and nobody waits
// ahead of it. Called with a.mu held; it unlocks a.mu if and only if it
// admits.
func (a *Admission) grantLocked() bool {
	if a.inflight >= a.max || len(a.queue) > 0 {
		return false
	}
	a.inflight++
	g := a.inflightGauge
	v := int64(a.inflight)
	a.mu.Unlock()
	g.Set(v)
	a.admitted.Add(1)
	return true
}

// Release returns an admission slot, feeding the observed service time
// into the expected-latency estimate. dur <= 0 skips the estimate
// update (e.g. a request that shed after admission for other reasons).
func (a *Admission) Release(dur time.Duration) {
	a.mu.Lock()
	if dur > 0 {
		if a.ewmaNs == 0 {
			a.ewmaNs = float64(dur)
		} else {
			a.ewmaNs = (1-ewmaAlpha)*a.ewmaNs + ewmaAlpha*float64(dur)
		}
	}
	a.releaseSlotLocked()
	ig, qg := a.inflightGauge, a.queueGauge
	iv, qv := int64(a.inflight), int64(len(a.queue))
	a.mu.Unlock()
	ig.Set(iv)
	qg.Set(qv)
}

// releaseSlotLocked hands the slot to the oldest live waiter, or frees
// it when no waiter wants it. Callers hold a.mu.
func (a *Admission) releaseSlotLocked() {
	for len(a.queue) > 0 {
		w := a.queue[0]
		a.queue = a.queue[1:]
		if w.abandoned {
			continue
		}
		w.granted = true
		close(w.ready)
		return
	}
	a.inflight--
}

// expectedLatencyLocked estimates queue wait plus service for a request
// arriving now: (queued ahead + 1) service times spread over max
// servers, plus its own service. Zero until a first observation lands.
func (a *Admission) expectedLatencyLocked() time.Duration {
	if a.ewmaNs == 0 {
		return 0
	}
	svc := time.Duration(a.ewmaNs)
	return svc + svc*time.Duration(len(a.queue)+1)/time.Duration(a.max)
}

// retryAfterLocked derives the Retry-After hint from current load:
// roughly when the present backlog will have drained, floored at 1s.
func (a *Admission) retryAfterLocked() int {
	if a.ewmaNs == 0 {
		return 1
	}
	svc := time.Duration(a.ewmaNs)
	wait := svc * time.Duration(len(a.queue)+a.inflight) / time.Duration(a.max)
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Expected returns the current expected-service-time estimate (zero
// before any observation).
func (a *Admission) Expected() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return time.Duration(a.ewmaNs)
}

// SeedExpected primes the expected-service-time estimate, e.g. from a
// prior run's p50 — lets the deadline-aware shed act from the first
// burst instead of after a warm-up.
func (a *Admission) SeedExpected(d time.Duration) {
	a.mu.Lock()
	a.ewmaNs = float64(d)
	a.mu.Unlock()
}

// Inflight reports the currently admitted count (tests, debug).
func (a *Admission) Inflight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}

// Queued reports the current wait-queue length including abandoned
// entries not yet swept (tests, debug).
func (a *Admission) Queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}
