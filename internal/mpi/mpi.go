// Package mpi is a message-passing runtime modeled on the MPI subset that
// the NAS Parallel Benchmarks use. Ranks are goroutines inside one process;
// point-to-point messages are matched on (source, tag, communicator) in
// arrival order, and the collectives the kernels use (barrier, broadcast,
// allreduce, alltoall, communicator split) are built on top of the
// point-to-point layer with dissemination, binomial-tree and pairwise
// exchange algorithms.
//
// The package stands in for the IBM SP's MPI in the coupling-paper
// reproduction: the kernels of BT, SP and LU communicate through it, and an
// optional network cost model (see NetModel) charges a latency/bandwidth
// delay per message so that message-count and message-size effects show up
// in measured kernel couplings the way they did on the SP's switch.
package mpi

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/timing"
)

// worldContext is the context id of the world communicator. Communicator
// contexts isolate message matching between communicators.
const worldContext = 0

// World owns the mailboxes and shared state of a set of ranks. A World is
// created implicitly by Run; tests that need finer control can use NewWorld
// and Launch directly.
type World struct {
	size     int
	boxes    []*mailbox
	nextCtx  atomic.Int64
	net      *NetModel
	deadline time.Duration // zero means no receive timeout

	// obs, when non-nil, receives metrics and spans for every runtime
	// operation; phases holds each world rank's current phase (the
	// executing kernel) as its resolved per-kernel handles, nil between
	// kernels, written and read only by that rank (SetPhase). Both are nil
	// on unobserved worlds, costing one nil check per operation.
	obs    *Observer
	phases []*kernelMetrics

	// inj, when non-nil, injects faults (delays, drops, crashes) into
	// every runtime operation; nil on healthy worlds, costing one nil
	// check per operation.
	inj Injector

	failMu   sync.Mutex
	failures []RankFailure
}

// RankFailure records one rank's death: the panic (or injected/structured
// error) that killed it and, for genuine panics, the goroutine stack at
// recovery time.
type RankFailure struct {
	// Rank is the world rank that failed.
	Rank int
	// Err describes the failure.
	Err error
	// Stack is the failing goroutine's stack, nil for structured failures
	// (watchdog stalls, lost messages) whose origin is explicit.
	Stack []byte
}

// teardown is the panic value used to unwind ranks after the world has
// already recorded a failure (poisoned mailboxes, lost messages, watchdog
// stalls). Launch recognizes it and does not record a second failure for
// the merely-unwinding rank.
type teardown struct{ msg string }

func (t teardown) String() string { return t.msg }

// bufPool recycles float64 message payloads: solver workloads send the
// same-shaped messages millions of times, and per-send allocation would
// turn the GC into a dominant noise source in the timing measurements this
// runtime exists to support. It belongs to the process, not to a World: a
// study runs one short world a measurement, and with a pool each, every
// world grew its payloads again (0.3 MB for a BT.W.4 window — a fifth of
// what a study allocates, once its rank state is recycled too).
var bufPool sync.Pool

// payload is what a message carries and what the pool holds: a pointer to
// one, because a pooled slice would box its header into the pool's `any`
// on every Put — an allocation per message received.
type payload struct {
	f64 []float64
}

// getBuf returns a payload holding a length-n float64 slice, recycled when
// possible.
//
//kcvet:hotpath per-message allocation on the send path is GC noise in timing measurements
func (w *World) getBuf(n int) *payload {
	p, _ := bufPool.Get().(*payload)
	if p == nil {
		p = new(payload)
	}
	if cap(p.f64) < n {
		p.f64 = make([]float64, n)
	}
	p.f64 = p.f64[:n]
	return p
}

// putBuf recycles a float64 payload whose contents have been copied out.
//
//kcvet:hotpath see getBuf
func (w *World) putBuf(p *payload) {
	bufPool.Put(p)
}

// Option configures a World.
type Option func(*World)

// WithNetModel attaches a network cost model that delays message delivery
// by latency + size/bandwidth, emulating an interconnect.
func WithNetModel(m NetModel) Option {
	return func(w *World) {
		mm := m
		w.net = &mm
	}
}

// WithRecvTimeout arms the progress watchdog: any receive that waits
// longer than d fails the world with a who-waits-on-whom diagnostic of
// every rank's pending mailbox (see World.stallReport), turning a silent
// deadlock into an actionable report. Zero disables the watchdog.
func WithRecvTimeout(d time.Duration) Option {
	return func(w *World) { w.deadline = d }
}

// NewWorld creates a World with n ranks. n must be positive.
func NewWorld(n int, opts ...Option) *World {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: world size %d must be positive", n))
	}
	w := &World{size: n, boxes: make([]*mailbox, n)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox(w, i)
	}
	w.nextCtx.Store(worldContext + 1)
	for _, o := range opts {
		o(w)
	}
	if w.obs != nil {
		w.phases = make([]*kernelMetrics, n)
	}
	return w
}

// Run creates a world of n ranks, runs fn once per rank concurrently, and
// waits for all ranks to return. If any rank panics, Run recovers the
// panic and returns an error carrying every failed rank's id and stack
// after all surviving ranks finish or the world is torn down.
func Run(n int, fn func(*Comm), opts ...Option) error {
	w := NewWorld(n, opts...)
	return w.Launch(fn)
}

// Launch runs fn on every rank of the world and waits for completion.
// Every rank panic is recorded with its rank id and stack; the first
// recorded failure poisons all mailboxes promptly so blocked peers unwind
// instead of hanging on a dead rank. The returned error enumerates every
// failure (nil when all ranks returned normally).
func (w *World) Launch(fn func(*Comm)) error {
	if ws, ok := w.inj.(WorldStarter); ok {
		ws.WorldStart()
	}
	var wg sync.WaitGroup
	wg.Add(w.size)
	group := make([]int, w.size)
	for i := range group {
		group[i] = i
	}
	for r := 0; r < w.size; r++ {
		comm := &Comm{world: w, ctx: worldContext, rank: r, group: group}
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if td, ok := p.(teardown); ok {
						// The rank was unwound by a poisoned mailbox or a
						// structured failure already on record; only record
						// it if, somehow, nothing else was.
						if !w.failed() {
							w.fail(comm.rank, fmt.Errorf("%s", td.msg), nil)
						}
						return
					}
					w.fail(comm.rank, fmt.Errorf("panicked: %v", p), debug.Stack())
				}
			}()
			fn(comm)
		}()
	}
	wg.Wait()
	return w.runErr()
}

// fail records a rank failure and poisons every mailbox so blocked peers
// wake and unwind promptly.
func (w *World) fail(rank int, err error, stack []byte) {
	w.failMu.Lock()
	w.failures = append(w.failures, RankFailure{Rank: rank, Err: err, Stack: stack})
	w.failMu.Unlock()
	for _, b := range w.boxes {
		b.poison()
	}
}

// failed reports whether any failure has been recorded.
func (w *World) failed() bool {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return len(w.failures) > 0
}

// Failures returns the recorded rank failures sorted by rank (then by
// recording order), for callers that want structured access after Launch.
func (w *World) Failures() []RankFailure {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	fs := append([]RankFailure(nil), w.failures...)
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Rank < fs[j].Rank })
	return fs
}

// runErr folds the recorded failures into one error: a summary line, one
// line per failed rank, then each genuine panic's stack.
func (w *World) runErr() error {
	fs := w.Failures()
	if len(fs) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mpi: %d rank failure(s):", len(fs))
	for _, f := range fs {
		fmt.Fprintf(&b, "\n  rank %d: %v", f.Rank, f.Err)
	}
	for _, f := range fs {
		if len(f.Stack) > 0 {
			fmt.Fprintf(&b, "\nrank %d stack:\n%s", f.Rank, f.Stack)
		}
	}
	return fmt.Errorf("%s", b.String())
}

// Comm is a communicator: an ordered group of ranks with an isolated
// message-matching context. The world communicator is passed to each rank's
// function by Run; sub-communicators are created with Split.
type Comm struct {
	world *World
	ctx   int
	rank  int   // rank within this communicator
	group []int // communicator rank -> world rank
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank returns the caller's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.group[c.rank] }

// Wtime reads the world's clock, mirroring MPI_Wtime. It is the one rule
// for that clock — the attached trace's, the wall clock without one — so
// the MPI spans and the measurement layer's stamps are one instrument's.
func (c *Comm) Wtime() time.Time {
	if tr := c.Trace(); tr != nil {
		return tr.Now()
	}
	return timing.WallClock.Now()
}

// Trace returns the trace the world's observer carries, nil without one.
func (c *Comm) Trace() *obs.Trace {
	if ob := c.world.obs; ob != nil {
		return ob.trace
	}
	return nil
}

func (c *Comm) worldOf(commRank int) int {
	if commRank < 0 || commRank >= len(c.group) {
		panic(fmt.Sprintf("mpi: rank %d out of range for communicator of size %d", commRank, len(c.group)))
	}
	return c.group[commRank]
}
