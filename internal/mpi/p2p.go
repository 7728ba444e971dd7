package mpi

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// message is the unit carried between ranks. Exactly one of the payload's
// f64 and raw is in use; isFloat records which typed Send produced it so a
// mismatched Recv fails loudly instead of silently reinterpreting bytes.
type message struct {
	src       int // sender's rank within the communicator identified by ctx
	tag       int
	ctx       int
	*payload  // from the process's pool; the receiver returns it
	isFloat   bool
	deliverAt time.Time // zero when no network model or fault delay applies
}

// waitInfo describes one in-progress blocking match (a Recv or Probe), for
// the watchdog's who-waits-on-whom diagnostic.
type waitInfo struct {
	op    string // "recv" or "probe"
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
//kcvet:hotpath one call per message delivered; ROADMAP item 4 warm path
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
	b.world.fail(b.rank, fmt.Errorf("%s", diag), nil)
	panic(teardown{diag})
}

// stallReport renders the watchdog diagnostic: which rank stalled on what,
// and for every rank what it is blocked waiting for and what is sitting
// unmatched in its mailbox — the who-waits-on-whom picture that turns a
// silent deadlock into an actionable report.
func (w *World) stallReport(stalled int, wi *waitInfo) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mpi: watchdog: receive timeout: rank %d stalled in %s waiting for src=%d tag=%d ctx=%d for %v (likely deadlock)",
		stalled, wi.op, wi.src, wi.tag, wi.ctx, time.Since(wi.since).Round(time.Millisecond))
	sb.WriteString("\nwho-waits-on-whom:")
	for r, b := range w.boxes {
		b.mu.Lock()
		waits := make([]string, 0, len(b.waiting))
		for _, wt := range b.waiting {
			waits = append(waits, fmt.Sprintf("%s(src=%d tag=%d ctx=%d %v)",
				wt.op, wt.src, wt.tag, wt.ctx, time.Since(wt.since).Round(time.Millisecond)))
		}
		const maxShown = 8
		pend := make([]string, 0, maxShown)
		for i, m := range b.pending {
			if i == maxShown {
				pend = append(pend, fmt.Sprintf("+%d more", len(b.pending)-maxShown))
				break
			}
			pend = append(pend, fmt.Sprintf("(src=%d tag=%d ctx=%d)", m.src, m.tag, m.ctx))
		}
		b.mu.Unlock()
		fmt.Fprintf(&sb, "\n  rank %d: waiting on [%s], %d unmatched pending [%s]",
			r, strings.Join(waits, " "), len(pend), strings.Join(pend, " "))
	}
	return sb.String()
}

// take removes and returns the first pending message matching (src, tag,
// ctx), blocking until one arrives, along with the pending-queue length
// at match time (the matched message included) — the unexpected-message
// queue depth the observability layer reports. src may be AnySource and
// tag AnyTag. When the world's watchdog is armed (timeout > 0), a wait
// exceeding the timeout fails the world with a who-waits-on-whom
// diagnostic instead of returning.
//
//kcvet:hotpath one call per message received; ROADMAP item 4 warm path
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
		wi = &waitInfo{op: "recv", src: src, tag: tag, ctx: ctx, since: now}
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
			if m.ctx != ctx {
				continue
			}
			if src != AnySource && m.src != src {
				continue
			}
			if tag == AnyTag {
				// The wildcard only matches user messages, never
				// internal collective traffic.
				if m.tag < 0 {
					continue
				}
			} else if m.tag != tag {
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
			//kcvet:ignore hotalloc dying path: stall renders the watchdog diagnostic and panics
			b.stall(wi) // panics
		}
		b.cond.Wait()
	}
}

// Status describes a received message.
type Status struct {
	Source int // sender's rank in the receiving communicator
	Tag    int
	Count  int // number of float64s or bytes received
}

func (c *Comm) validateTag(tag int) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: user tags must be non-negative, got %d", tag))
	}
}

// internal tags live at -2 and below so they can collide neither with user
// tags (>= 0) nor with the AnyTag wildcard (-1).
const (
	tagBarrier = -2 - iota
	tagBcast
	tagReduce
	tagGather
	tagAllgather
	tagScatter
	tagAlltoall
	tagSplit
	tagScan
)

// Send delivers a copy of buf to dest with the given tag. Sends are eager
// and never block: the payload is copied into the destination mailbox, so
// the caller may reuse buf immediately (MPI buffered-send semantics).
//
//kcvet:hotpath LU's pipelined sweeps send twice per plane inside timed windows
func (c *Comm) Send(dest int, tag int, buf []float64) {
	c.validateTag(tag)
	c.send(dest, tag, buf, nil, true)
}

// SendBytes delivers a copy of raw bytes to dest with the given tag.
func (c *Comm) SendBytes(dest int, tag int, buf []byte) {
	c.validateTag(tag)
	c.send(dest, tag, nil, buf, false)
}

// send is the common eager-send path for float64 and byte payloads.
//
//kcvet:hotpath one call per message sent; payloads ride the process's pools
func (c *Comm) send(dest, tag int, f64 []float64, raw []byte, isFloat bool) {
	ob := c.world.obs
	var start time.Time
	if ob != nil {
		start = ob.now()
	}
	wdest := c.worldOf(dest)
	m := message{src: c.rank, tag: tag, ctx: c.ctx, isFloat: isFloat}
	var bytes int
	if isFloat {
		m.payload = c.world.getBuf(len(f64))
		copy(m.f64, f64)
		bytes = 8 * len(f64)
	} else {
		m.payload = c.world.getRaw(len(raw))
		copy(m.raw, raw)
		bytes = len(raw)
	}
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
		ob.observeSend(c.group[c.rank], c.phase(), dest, tag, bytes, start, ob.now().Sub(start))
	}
}

// Recv blocks until a message matching (src, tag) arrives on this
// communicator and copies it into buf. buf must be at least as large as the
// incoming payload. src may be AnySource and tag AnyTag. The returned Status
// reports the actual source, tag and element count.
//
//kcvet:hotpath LU's pipelined sweeps receive twice per plane inside timed windows
func (c *Comm) Recv(src int, tag int, buf []float64) Status {
	if tag != AnyTag {
		c.validateTag(tag)
	}
	m := c.recv(src, tag)
	if !m.isFloat {
		panic(fmt.Sprintf("mpi: Recv(float64) matched a byte message from src=%d tag=%d", m.src, m.tag))
	}
	if len(m.f64) > len(buf) {
		panic(fmt.Sprintf("mpi: Recv buffer too small: need %d float64s, have %d", len(m.f64), len(buf)))
	}
	n := copy(buf, m.f64)
	c.world.putBuf(m.payload)
	return Status{Source: m.src, Tag: m.tag, Count: n}
}

// RecvBytes is Recv for byte payloads.
func (c *Comm) RecvBytes(src int, tag int, buf []byte) Status {
	if tag != AnyTag {
		c.validateTag(tag)
	}
	m := c.recv(src, tag)
	if m.isFloat {
		panic(fmt.Sprintf("mpi: RecvBytes matched a float64 message from src=%d tag=%d", m.src, m.tag))
	}
	if len(m.raw) > len(buf) {
		panic(fmt.Sprintf("mpi: RecvBytes buffer too small: need %d bytes, have %d", len(m.raw), len(buf)))
	}
	n := copy(buf, m.raw)
	c.world.putRaw(m.payload)
	return Status{Source: m.src, Tag: m.tag, Count: n}
}

// RecvNew is Recv into a freshly allocated slice sized to the payload.
func (c *Comm) RecvNew(src int, tag int) ([]float64, Status) {
	if tag != AnyTag {
		c.validateTag(tag)
	}
	m := c.recv(src, tag)
	if !m.isFloat {
		panic(fmt.Sprintf("mpi: RecvNew matched a byte message from src=%d tag=%d", m.src, m.tag))
	}
	// The caller keeps the slice; only its holder goes back to the pool.
	data := m.f64
	m.f64 = nil
	c.world.putBuf(m.payload)
	return data, Status{Source: m.src, Tag: m.tag, Count: len(data)}
}

// recv is the common blocking-receive path behind Recv/RecvBytes/RecvNew.
//
//kcvet:hotpath one call per message received; ROADMAP item 4 warm path
func (c *Comm) recv(src, tag int) message {
	wself := c.group[c.rank]
	if inj := c.world.inj; inj != nil {
		if of := inj.Op(wself, "recv"); of.Crash || of.Delay > 0 {
			c.applyOpFault(wself, "recv", of)
		}
	}
	ob := c.world.obs
	if ob == nil {
		m, _ := c.world.boxes[wself].take(src, tag, c.ctx, c.world.deadline)
		if !m.deliverAt.IsZero() {
			waitUntil(m.deliverAt)
		}
		return m
	}
	start := ob.now()
	m, depth := c.world.boxes[wself].take(src, tag, c.ctx, c.world.deadline)
	matched := ob.now()
	if !m.deliverAt.IsZero() {
		waitUntil(m.deliverAt)
	}
	transfer := time.Duration(0)
	if !m.deliverAt.IsZero() {
		transfer = ob.now().Sub(matched)
	}
	bytes := len(m.raw)
	if m.isFloat {
		bytes = 8 * len(m.f64)
	}
	ob.observeRecv(wself, c.phase(), m.src, m.tag, bytes, depth, start, matched.Sub(start), transfer)
	return m
}

// internalSend and internalRecv are used by collectives; they bypass user-
// tag validation so the reserved negative tag space can be used.
func (c *Comm) internalSend(dest, tag int, buf []float64) {
	c.send(dest, tag, buf, nil, true)
}

func (c *Comm) internalRecv(src, tag int, buf []float64) Status {
	m := c.recv(src, tag)
	if len(m.f64) > len(buf) {
		panic(fmt.Sprintf("mpi: internal recv buffer too small: need %d, have %d", len(m.f64), len(buf)))
	}
	n := copy(buf, m.f64)
	c.world.putBuf(m.payload)
	return Status{Source: m.src, Tag: m.tag, Count: n}
}

// Sendrecv sends sendBuf to dest and receives into recvBuf from src in one
// operation. Because sends are eager the combined operation cannot deadlock
// even when a ring of ranks calls it simultaneously.
func (c *Comm) Sendrecv(dest, sendTag int, sendBuf []float64, src, recvTag int, recvBuf []float64) Status {
	c.Send(dest, sendTag, sendBuf)
	return c.Recv(src, recvTag, recvBuf)
}

// Probe blocks until a matching message is available and returns its Status
// without consuming it.
func (c *Comm) Probe(src, tag int) Status {
	wself := c.group[c.rank]
	b := c.world.boxes[wself]
	var wi *waitInfo
	deadlineAt := time.Time{}
	if d := c.world.deadline; d > 0 {
		now := time.Now()
		deadlineAt = now.Add(d)
		// See take: the locked broadcast avoids a lost watchdog wakeup.
		timer := time.AfterFunc(d, func() {
			b.mu.Lock()
			defer b.mu.Unlock()
			b.cond.Broadcast()
		})
		defer timer.Stop()
		wi = &waitInfo{op: "probe", src: src, tag: tag, ctx: c.ctx, since: now}
	}
	b.mu.Lock()
	if wi != nil {
		b.waiting = append(b.waiting, wi)
	}
	for {
		if b.poisoned {
			if wi != nil {
				b.removeWait(wi)
			}
			b.mu.Unlock()
			panic(teardown{"mpi: world torn down while probing"})
		}
		for i := range b.pending {
			m := &b.pending[i]
			if m.ctx != c.ctx {
				continue
			}
			if src != AnySource && m.src != src {
				continue
			}
			if tag == AnyTag {
				if m.tag < 0 {
					continue
				}
			} else if m.tag != tag {
				continue
			}
			n := len(m.raw)
			if m.isFloat {
				n = len(m.f64)
			}
			if wi != nil {
				b.removeWait(wi)
			}
			b.mu.Unlock()
			return Status{Source: m.src, Tag: m.tag, Count: n}
		}
		if !deadlineAt.IsZero() && !time.Now().Before(deadlineAt) {
			b.removeWait(wi)
			b.mu.Unlock()
			b.stall(wi) // panics
		}
		b.cond.Wait()
	}
}
