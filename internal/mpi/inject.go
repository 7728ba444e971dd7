package mpi

import (
	"fmt"
	"time"
)

// OpFault is an injector's decision for one runtime operation (a
// point-to-point send or receive, or a collective entry) on one rank.
type OpFault struct {
	// Delay is imposed on the calling rank before the operation proceeds,
	// emulating a straggler or a slowed collective.
	Delay time.Duration
	// Crash makes the rank panic at this operation. The panic is recovered
	// by Launch, surfaces as a rank failure with a stack, and poisons the
	// world's mailboxes so surviving ranks unwind instead of hanging.
	Crash bool
}

// MsgFault is an injector's decision for one point-to-point message. The
// injector resolves the whole retransmission protocol for the message up
// front (how many attempts were dropped, the exponential backoff each
// resend paid) so the decision stays a pure function of the message's
// identity; the p2p layer then applies the outcome transparently: a
// recovered message is simply delivered late by Delay, a lost one fails
// the world.
type MsgFault struct {
	// Delay is added to the message's delivery time: jitter plus the
	// accumulated backoff of any simulated resends.
	Delay time.Duration
	// Resends is how many transmission attempts were dropped before one
	// succeeded. Informational; the time cost is already in Delay.
	Resends int
	// Lost reports that the message exhausted its bounded resend budget.
	// The sender fails the world with a structured error (degradation at
	// the measurement layer takes over from there).
	Lost bool
}

// Injector decides which faults apply to each runtime operation of a
// world. Implementations must be safe for concurrent ranks and must derive
// every decision only from the operation's identity (rank, per-rank
// operation index, seed) — never from wall time — so a fault schedule is
// byte-for-byte reproducible under the same seed. The zero cost of the
// disabled case is one nil check per operation.
//
// The canonical implementation lives in internal/fault; the interface is
// defined here so the runtime does not depend on the fault package.
type Injector interface {
	// Op is consulted at the entry of every operation the rank performs:
	// op is "send", "recv", or a collective name ("barrier", "bcast", ...).
	Op(worldRank int, op string) OpFault
	// Message is consulted once per point-to-point message, keyed by the
	// sender's world rank; dest is the destination world rank and tag the
	// communicator-level tag (negative for collective-internal traffic).
	Message(src, dest, tag, bytes int) MsgFault
}

// Collectives lists every collective name the runtime passes to
// Injector.Op, and the ops the Observer keeps mpi.collective.<op> metrics
// for; "send" and "recv" are the only other ops it passes. Reduce and
// gather are not callable on their own, but Allreduce and Split enter
// them, so a fault spec may still name them.
var Collectives = []string{
	"barrier", "bcast", "reduce", "allreduce", "gather", "alltoall", "split",
}

// WorldStarter is an optional Injector extension. Launch calls WorldStart
// once, before any rank starts, on every world the injector is attached
// to. It gives the injector a deterministic boundary between worlds: a
// world that dies mid-flight leaves its surviving ranks at
// scheduler-dependent points, so an injector keying decisions off
// counters that persist across worlds would lose same-seed
// reproducibility for every world after the first failure. Injectors that
// do not implement the interface are used as-is.
type WorldStarter interface {
	WorldStart()
}

// WithInjector attaches a fault injector to the world. A nil injector
// leaves the world fault-free at the cost of one nil check per operation.
func WithInjector(inj Injector) Option {
	return func(w *World) { w.inj = inj }
}

// applyOpFault imposes an injected operation fault on the calling rank.
func (c *Comm) applyOpFault(rank int, op string, of OpFault) {
	if of.Crash {
		panic(fmt.Sprintf("mpi: injected fault: rank %d crashes at %s", rank, op))
	}
	if of.Delay > 0 {
		waitUntil(time.Now().Add(of.Delay))
	}
}

// injectMessage resolves the injected fate of one outgoing message and
// returns the extra delivery delay. A lost message fails the world: the
// error is recorded as a rank failure and every mailbox is poisoned, so
// the run unwinds into a structured error instead of a silent hang.
func (c *Comm) injectMessage(wdest, tag, bytes int) time.Duration {
	inj := c.world.inj
	wself := c.group[c.rank]
	if of := inj.Op(wself, "send"); of.Crash || of.Delay > 0 {
		c.applyOpFault(wself, "send", of)
	}
	mf := inj.Message(wself, wdest, tag, bytes)
	if mf.Lost {
		//kcvet:ignore hotalloc dying path: the lost-message error fails the world and unwinds via panic
		err := fmt.Errorf("mpi: injected fault: message rank %d -> %d tag %d lost after resend budget", wself, wdest, tag)
		c.world.fail(wself, err, nil)
		panic(teardown{err.Error()})
	}
	return mf.Delay
}
