package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// message is the unit carried between ranks.
type message struct {
	src       int // sender's rank within the communicator identified by ctx
	tag       int
	ctx       int
	*payload            // from the process's pool; the receiver returns it
	deliverAt time.Time // zero when no network model or fault delay applies
}

// waitInfo describes one in-progress receive, for the watchdog's
// who-waits-on-whom diagnostic.
type waitInfo struct {
	src   int
	tag   int
	ctx   int
	since time.Time
}

// mailbox is an unbounded, mutex-guarded message queue with condition-
// variable wakeup. Matching scans pending messages in arrival order, which
// yields the per-(source,tag) FIFO ordering MPI guarantees.
type mailbox struct {
	world *World
	rank  int // owning world rank

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []message
	poisoned bool
	// waiting tracks in-progress blocking matches; maintained only when
	// the world's watchdog is armed (deadline > 0), so the unwatched hot
	// path pays nothing.
	waiting []*waitInfo
}

func newMailbox(w *World, rank int) *mailbox {
	b := &mailbox{world: w, rank: rank}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// put appends one message to the pending queue and wakes matchers.
//
//kcvet:hotpath one call per message delivered, inside every timed region that communicates
func (b *mailbox) put(m message) {
	b.mu.Lock()
	//kcvet:ignore hotalloc the mailbox is unbounded by design (eager sends); growth amortizes and shrinks via compaction
	b.pending = append(b.pending, m)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// poison wakes all waiters and makes any current or future receive panic;
// used to unwind the world after a rank dies.
func (b *mailbox) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// removeWait unregisters wi; the caller holds b.mu.
func (b *mailbox) removeWait(wi *waitInfo) {
	for i, w := range b.waiting {
		if w == wi {
			b.waiting[i] = b.waiting[len(b.waiting)-1]
			b.waiting = b.waiting[:len(b.waiting)-1]
			return
		}
	}
}

// stall handles a watchdog expiry on this mailbox: it records the
// who-waits-on-whom diagnostic as a structured world failure (poisoning
// every mailbox) and unwinds the caller. The caller must NOT hold b.mu.
func (b *mailbox) stall(wi *waitInfo) {
	diag := b.world.stallReport(b.rank, wi)
	b.world.fail(b.rank, errors.New(diag), nil)
	panic(teardown{diag})
}

// stallReport renders the watchdog diagnostic: which rank stalled on what,
// and for every rank what it is blocked waiting for and what is sitting
// unmatched in its mailbox — the who-waits-on-whom picture that turns a
// silent deadlock into an actionable report. Only take reaches it, so
// kcvet counts it as a hot path; each allocation is on the dying path.
func (w *World) stallReport(stalled int, wi *waitInfo) string {
	var sb strings.Builder
	//kcvet:ignore hotalloc watchdog dying path: the world fails with this report
	fmt.Fprintf(&sb, "mpi: watchdog: receive timeout: rank %d stalled in recv waiting for src=%d tag=%d ctx=%d for %v (likely deadlock)",
		stalled, wi.src, wi.tag, wi.ctx, time.Since(wi.since).Round(time.Millisecond))
	sb.WriteString("\nwho-waits-on-whom:")
	for r, b := range w.boxes {
		b.mu.Lock()
		var waits, pend []string
		for _, wt := range b.waiting {
			//kcvet:ignore hotalloc watchdog dying path: the world fails with this report
			waits = append(waits, fmt.Sprintf("recv(src=%d tag=%d ctx=%d %v)",
				wt.src, wt.tag, wt.ctx, time.Since(wt.since).Round(time.Millisecond)))
		}
		const maxShown = 8
		for i, m := range b.pending {
			if i == maxShown {
				//kcvet:ignore hotalloc watchdog dying path: the world fails with this report
				pend = append(pend, fmt.Sprintf("+%d more", len(b.pending)-maxShown))
				break
			}
			//kcvet:ignore hotalloc watchdog dying path: the world fails with this report
			pend = append(pend, fmt.Sprintf("(src=%d tag=%d ctx=%d)", m.src, m.tag, m.ctx))
		}
		b.mu.Unlock()
		//kcvet:ignore hotalloc watchdog dying path: the world fails with this report
		fmt.Fprintf(&sb, "\n  rank %d: waiting on [%s], %d unmatched pending [%s]",
			r, strings.Join(waits, " "), len(pend), strings.Join(pend, " "))
	}
	return sb.String()
}

// take removes and returns the first pending message matching (src, tag,
// ctx), blocking until one arrives, along with the pending-queue length
// at match time (the matched message included) — the unexpected-message
// queue depth the observability layer reports. When the world's watchdog
// is armed (timeout > 0), a wait exceeding the timeout fails the world
// with a who-waits-on-whom diagnostic instead of returning.
//
//kcvet:hotpath one call per message received, inside every timed region that communicates
func (b *mailbox) take(src, tag, ctx int, timeout time.Duration) (message, int) {
	var wi *waitInfo
	deadline := time.Time{}
	if timeout > 0 {
		now := time.Now()
		deadline = now.Add(timeout)
		// The callback takes the mutex so the broadcast cannot slip into
		// the window between a waiter's deadline check and its cond.Wait
		// registration (a lost wakeup would disarm the watchdog).
		timer := time.AfterFunc(timeout, func() {
			b.mu.Lock()
			defer b.mu.Unlock()
			b.cond.Broadcast()
		})
		defer timer.Stop()
		wi = &waitInfo{src: src, tag: tag, ctx: ctx, since: now}
	}
	b.mu.Lock()
	if wi != nil {
		//kcvet:ignore hotalloc waiting is maintained only when the watchdog is armed; the unwatched hot path never reaches this
		b.waiting = append(b.waiting, wi)
	}
	for {
		if b.poisoned {
			if wi != nil {
				b.removeWait(wi)
			}
			b.mu.Unlock()
			panic(teardown{"mpi: world torn down while receiving (peer rank died)"})
		}
		for i := range b.pending {
			m := &b.pending[i]
			if m.ctx != ctx || m.src != src || m.tag != tag {
				continue
			}
			found := *m
			depth := len(b.pending)
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			if wi != nil {
				b.removeWait(wi)
			}
			b.mu.Unlock()
			return found, depth
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			b.removeWait(wi)
			b.mu.Unlock()
			b.stall(wi) // panics
		}
		b.cond.Wait()
	}
}

func (c *Comm) validateTag(tag int) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: user tags must be non-negative, got %d", tag))
	}
}

// internal tags are negative so they cannot collide with user tags
// (>= 0). The values are fixed, gaps included: a tag is part of a
// message's identity, which fault decisions and traced spans report.
const (
	tagBarrier  = -2
	tagBcast    = -3
	tagReduce   = -4
	tagGather   = -5
	tagAlltoall = -8
)

// Send delivers a copy of buf to dest with the given tag. Sends are eager
// and never block: the payload is copied into the destination mailbox, so
// the caller may reuse buf immediately (MPI buffered-send semantics).
//
//kcvet:hotpath LU's pipelined sweeps send twice per plane inside timed windows
func (c *Comm) Send(dest int, tag int, buf []float64) {
	c.validateTag(tag)
	c.send(dest, tag, buf)
}

// send is the eager-send path behind Send and the collectives; it does not
// validate the tag, so the reserved negative tag space can be used.
//
//kcvet:hotpath one call per message sent; payloads ride the process's pool
func (c *Comm) send(dest, tag int, buf []float64) {
	ob := c.world.obs
	var start time.Time
	if ob != nil {
		start = c.Wtime()
	}
	wdest := c.worldOf(dest)
	m := message{src: c.rank, tag: tag, ctx: c.ctx, payload: c.world.getBuf(len(buf))}
	copy(m.f64, buf)
	bytes := 8 * len(buf)
	var faultDelay time.Duration
	if c.world.inj != nil {
		faultDelay = c.injectMessage(wdest, tag, bytes)
	}
	if net := c.world.net; net != nil {
		m.deliverAt = time.Now().Add(net.cost(bytes) + faultDelay)
	} else if faultDelay > 0 {
		m.deliverAt = time.Now().Add(faultDelay)
	}
	c.world.boxes[wdest].put(m)
	if ob != nil {
		ob.observeSend(c.group[c.rank], c.world.phases[c.group[c.rank]], dest, tag, bytes, start, c.Wtime().Sub(start))
	}
}

// Recv blocks until a message matching (src, tag) arrives on this
// communicator and copies it into buf. buf must be at least as large as the
// incoming payload.
//
//kcvet:hotpath LU's pipelined sweeps receive twice per plane inside timed windows
func (c *Comm) Recv(src int, tag int, buf []float64) {
	c.validateTag(tag)
	c.recv(src, tag, buf)
}

// recv is the blocking-receive path behind Recv and the collectives; like
// send, it does not validate the tag.
//
//kcvet:hotpath one call per message received, inside every timed region that communicates
func (c *Comm) recv(src, tag int, buf []float64) {
	wself := c.group[c.rank]
	if inj := c.world.inj; inj != nil {
		if of := inj.Op(wself, "recv"); of.Crash || of.Delay > 0 {
			c.applyOpFault(wself, "recv", of)
		}
	}
	var m message
	if ob := c.world.obs; ob == nil {
		m, _ = c.world.boxes[wself].take(src, tag, c.ctx, c.world.deadline)
		if !m.deliverAt.IsZero() {
			waitUntil(m.deliverAt)
		}
	} else {
		start := c.Wtime()
		var depth int
		m, depth = c.world.boxes[wself].take(src, tag, c.ctx, c.world.deadline)
		matched := c.Wtime()
		transfer := time.Duration(0)
		if !m.deliverAt.IsZero() {
			waitUntil(m.deliverAt)
			transfer = c.Wtime().Sub(matched)
		}
		ob.observeRecv(wself, c.world.phases[wself], m.src, m.tag, 8*len(m.f64), depth, start, matched.Sub(start), transfer)
	}
	if len(m.f64) > len(buf) {
		panic(fmt.Sprintf("mpi: Recv buffer too small: need %d float64s, have %d", len(m.f64), len(buf)))
	}
	copy(buf, m.f64)
	c.world.putBuf(m.payload)
}
