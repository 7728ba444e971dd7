package mpi

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// collectiveMetrics bundles one collective operation's handles.
type collectiveMetrics struct {
	count  *obs.Counter
	bytes  *obs.Histogram
	waitNs *obs.Histogram
}

// kernelMetrics bundles the per-kernel communication attribution: the
// totals of the point-to-point traffic issued while a rank's current
// phase (set by the measurement layer via Comm.SetPhase) named a kernel.
type kernelMetrics struct {
	sendCount *obs.Counter
	sendBytes *obs.Counter
	recvCount *obs.Counter
	recvBytes *obs.Counter
	recvWait  *obs.Counter // total ns blocked in matching
}

// Observer sinks the runtime's observability signal: counters and
// histograms into an obs.Registry, and — when it carries an obs.Trace —
// one span per MPI operation (the kernel spans beside them are the
// measurement layer's). One Observer may be shared by many Worlds (a
// measurement campaign spawns a world per timed window), accumulating
// across them. All methods are safe for concurrent ranks.
//
// Metric namespace:
//
//	mpi.send.{count,bytes}              point-to-point sends
//	mpi.recv.{count,bytes}              point-to-point receives
//	mpi.msg.bytes                       per-message size distribution
//	mpi.recv.wait_ns                    time blocked waiting for a match
//	mpi.recv.transfer_ns                net-model transfer delay
//	mpi.queue.depth                     pending-queue length at match time
//	mpi.context.created                 communicator context-id churn
//	mpi.collective.<op>.count           collective invocations (per rank)
//	mpi.collective.<op>.bytes           per-invocation payload bytes
//	mpi.collective.<op>.wait_ns         per-invocation time inside the op
//	mpi.kernel.<name>.{send.count,send.bytes,recv.count,recv.bytes,recv.wait_ns}
//
// Collectives are implemented on the point-to-point layer and sometimes
// on each other (Allreduce = reduce + Bcast, Split = gather + Bcast), so
// inner operations contribute to their own metrics too: mpi.send.count includes
// collective-internal traffic, and an Allreduce shows up under allreduce,
// reduce and bcast. Spans nest the same way, which is exactly what the
// per-rank Perfetto tracks render.
type Observer struct {
	reg   *obs.Registry
	trace *obs.Trace

	sendCount, sendBytes *obs.Counter
	recvCount, recvBytes *obs.Counter
	ctxCreated           *obs.Counter
	msgBytes             *obs.Histogram
	recvWait             *obs.Histogram
	recvTransfer         *obs.Histogram
	queueDepth           *obs.Histogram
	collectives          map[string]*collectiveMetrics

	mu        sync.RWMutex
	perKernel map[string]*kernelMetrics
}

// NewObserver returns an observer writing metrics into reg (a fresh
// registry when nil) and spans into tr (span recording disabled when
// nil). A world it observes reads tr's clock (Comm.Wtime), so spans and
// wait-time metrics are one reading.
func NewObserver(reg *obs.Registry, tr *obs.Trace) *Observer {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o := &Observer{
		reg:          reg,
		trace:        tr,
		sendCount:    reg.Counter("mpi.send.count"),
		sendBytes:    reg.Counter("mpi.send.bytes"),
		recvCount:    reg.Counter("mpi.recv.count"),
		recvBytes:    reg.Counter("mpi.recv.bytes"),
		ctxCreated:   reg.Counter("mpi.context.created"),
		msgBytes:     reg.Histogram("mpi.msg.bytes"),
		recvWait:     reg.Histogram("mpi.recv.wait_ns"),
		recvTransfer: reg.Histogram("mpi.recv.transfer_ns"),
		queueDepth:   reg.Histogram("mpi.queue.depth"),
		collectives:  make(map[string]*collectiveMetrics, len(Collectives)),
		perKernel:    map[string]*kernelMetrics{},
	}
	// One handle set per collective, built here once so the hot path
	// never takes a lock.
	for _, op := range Collectives {
		o.collectives[op] = &collectiveMetrics{
			count:  reg.Counter("mpi.collective." + op + ".count"),
			bytes:  reg.Histogram("mpi.collective." + op + ".bytes"),
			waitNs: reg.Histogram("mpi.collective." + op + ".wait_ns"),
		}
	}
	return o
}

// kernel resolves (lazily creating) the per-kernel attribution handles.
func (o *Observer) kernel(name string) *kernelMetrics {
	o.mu.RLock()
	km := o.perKernel[name]
	o.mu.RUnlock()
	if km != nil {
		return km
	}
	// Resolve the registry handles before taking o.mu: Registry.Counter
	// acquires the registry's own lock, and holding two locks nested here
	// would couple the observer's lock order to every other registry
	// caller's. Racing builders are harmless — Counter is idempotent per
	// name, so both build identical handle sets and the insert below
	// double-checks which one wins.
	prefix := "mpi.kernel." + name + "."
	fresh := &kernelMetrics{
		sendCount: o.reg.Counter(prefix + "send.count"),
		sendBytes: o.reg.Counter(prefix + "send.bytes"),
		recvCount: o.reg.Counter(prefix + "recv.count"),
		recvBytes: o.reg.Counter(prefix + "recv.bytes"),
		recvWait:  o.reg.Counter(prefix + "recv.wait_ns"),
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if km = o.perKernel[name]; km != nil {
		return km
	}
	o.perKernel[name] = fresh
	return fresh
}

// observeSend records one point-to-point send of n payload bytes
// attributed to the sender's current phase, km (nil outside a kernel).
func (o *Observer) observeSend(rank int, km *kernelMetrics, dest, tag, n int, start time.Time, elapsed time.Duration) {
	o.sendCount.Inc()
	o.sendBytes.Add(int64(n))
	o.msgBytes.Observe(int64(n))
	if km != nil {
		km.sendCount.Inc()
		km.sendBytes.Add(int64(n))
	}
	if o.trace != nil {
		//kcvet:ignore hotalloc span recording is profiling mode, explicitly kept out of timing measurement campaigns
		o.trace.Record(start, obs.Span{Track: obs.TrackMPI, Rank: rank, Name: "send", Detail: fmt.Sprintf("dst=%d tag=%d", dest, tag), Bytes: n, Elapsed: elapsed})
	}
}

// observeRecv records one completed receive: wait is the time blocked in
// matching, transfer the net-model delivery delay, depth the pending
// queue length when the match succeeded; km is the receiver's current
// phase (nil outside a kernel).
func (o *Observer) observeRecv(rank int, km *kernelMetrics, src, tag, n, depth int, start time.Time, wait, transfer time.Duration) {
	o.recvCount.Inc()
	o.recvBytes.Add(int64(n))
	o.recvWait.Observe(int64(wait))
	if transfer > 0 {
		o.recvTransfer.Observe(int64(transfer))
	}
	o.queueDepth.Observe(int64(depth))
	if km != nil {
		km.recvCount.Inc()
		km.recvBytes.Add(int64(n))
		km.recvWait.Add(int64(wait))
	}
	if o.trace != nil {
		//kcvet:ignore hotalloc span recording is profiling mode, explicitly kept out of timing measurement campaigns
		o.trace.Record(start, obs.Span{Track: obs.TrackMPI, Rank: rank, Name: "recv", Detail: fmt.Sprintf("src=%d tag=%d", src, tag), Bytes: n, Elapsed: wait + transfer, Wait: wait})
	}
}

// observeCollective records one rank's passage through a collective.
func (o *Observer) observeCollective(rank int, op string, bytes int, start time.Time, elapsed time.Duration) {
	cm := o.collectives[op]
	if cm == nil {
		// An op outside the fixed set would silently vanish from the
		// snapshot; fail loudly in development.
		panic("mpi: unregistered collective op " + op)
	}
	cm.count.Inc()
	cm.bytes.Observe(int64(bytes))
	cm.waitNs.Observe(int64(elapsed))
	if o.trace != nil {
		o.trace.Record(start, obs.Span{Track: obs.TrackMPI, Rank: rank, Name: op, Bytes: bytes, Elapsed: elapsed, Wait: elapsed})
	}
}

// WithObserver attaches an observability sink to the world: per-rank
// send/recv/collective metrics and (when the observer carries a trace)
// MPI and kernel spans. A nil observer leaves the world unobserved; the
// instrumentation then costs one nil check per operation.
func WithObserver(o *Observer) Option {
	return func(w *World) { w.obs = o }
}

// beginCollective is every collective's entry: the fault injection point
// for collective entries (straggler and collective slowdown, rank crash),
// costing one nil check when no injector is attached, and on an observed
// world the start of the calling rank's span. It returns the start
// reading (zero when unobserved), which the collective hands to
// endCollective at its exit.
func (c *Comm) beginCollective(op string) time.Time {
	if inj := c.world.inj; inj != nil {
		if of := inj.Op(c.group[c.rank], op); of.Crash || of.Delay > 0 {
			c.applyOpFault(c.group[c.rank], op, of)
		}
	}
	if c.world.obs == nil {
		return time.Time{}
	}
	return c.Wtime()
}

// endCollective closes the span beginCollective opened at start. bytes is
// the payload size the op moves per rank (0 for pure synchronization). It
// costs one nil check on an unobserved world.
func (c *Comm) endCollective(op string, bytes int, start time.Time) {
	if ob := c.world.obs; ob != nil {
		ob.observeCollective(c.group[c.rank], op, bytes, start, c.Wtime().Sub(start))
	}
}

// SetPhase labels the calling rank's subsequent communication with a
// phase name — the measurement layer sets the executing kernel's name
// before every RunKernel so per-kernel communication breakdowns can be
// reported. An empty name clears the label. The phase's metric handles
// are resolved here, once per kernel edge, so a message pays no lookup.
// It reads no clock, and is a no-op on an unobserved world.
//
//kcvet:hotpath every kernel edge of every timed region sets its phase here
func (c *Comm) SetPhase(name string) {
	w := c.world
	if w.obs == nil {
		return
	}
	var km *kernelMetrics
	if name != "" {
		km = w.obs.kernel(name)
	}
	w.phases[c.group[c.rank]] = km
}
