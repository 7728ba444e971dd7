package npb

import (
	"fmt"
	"sync"

	"repro/internal/mpi"
)

// KernelSet is the per-rank view of a running benchmark: a dispatcher for
// its named kernels plus a refresh hook that restores numerical state
// between timed blocks (repeatedly applying an implicit solve to the same
// right-hand side would otherwise shrink it toward denormals and distort
// the timing).
type KernelSet interface {
	// RunKernel executes one application-order invocation of the named
	// kernel on this rank.
	RunKernel(name string) error
	// Refresh restores the numerical state consumed by repeated kernel
	// application, bit for bit what set-up left. It runs outside the
	// timed region.
	Refresh()
}

// Rebinder is implemented by the KernelSet of a benchmark whose rank state
// can serve another world of the same configuration. Set-up is a pure
// function of (configuration, rank), so instead of building that state
// again a factory hands the next world the last one's.
type Rebinder interface {
	// Rebind attaches the state to c, the same rank of a new world: it
	// takes c and the communicators derived from it, and leaves the state
	// as set-up would — Refresh, verification results cleared. Scratch
	// arrays keep whatever the last world left in them; every kernel
	// writes its scratch before reading it. Rebind may communicate only
	// as every other rank's Rebind does (see Factory).
	Rebind(c *mpi.Comm)
}

// Factory builds the rank state of every world of one benchmark
// configuration, and keeps the state of a world that finished cleanly for
// the next: a study measures its 16–29 windows in as many worlds of one
// configuration, and allocating, initialising and exchanging the same
// fields for each was more of a cold study than its timed blocks.
//
// The unit of reuse is a whole world's set, taken or not once before the
// world launches, so a world's ranks are all recycled or all built. A
// built rank's set-up exchanges ghost faces and a rebound rank's does
// not: in a world that mixed them the built ranks' set-up faces would be
// matched by their neighbours' first timed exchange, shifting every later
// face by one message.
//
// A set returns to the factory only from a world in which no rank failed,
// and only if its kernel sets are Rebinders (BT, SP, LU; FT and test
// doubles are built for every world). Idle sets never outnumber the
// worlds that have run at once, and they die with the factory — with the
// study that made it, or, when a Pool holds it, with the pool's holder.
// There is no switch; a caller that wants new state makes a new factory.
type Factory struct {
	build func(c *mpi.Comm) (KernelSet, error)

	mu   sync.Mutex
	idle [][]KernelSet // one set per finished world, indexed by world rank
}

// NewFactory returns a factory whose worlds build each rank's state with
// build. build performs all set-up (grids, decomposition, initial fields),
// which is excluded from every timed region.
func NewFactory(build func(c *mpi.Comm) (KernelSet, error)) *Factory {
	return &Factory{build: build}
}

// Run starts a world of procs ranks and calls fn on each with that rank's
// kernel set, rebound from an idle set when the factory holds one and
// built otherwise; fresh tells fn which, the same on every rank. It is
// the one path a world of the factory's configuration goes through.
func (f *Factory) Run(procs int, fn func(c *mpi.Comm, ks KernelSet, fresh bool), opts ...mpi.Option) error {
	w := mpi.NewWorld(procs, opts...)
	set := f.take()
	fresh := set == nil
	if fresh {
		set = make([]KernelSet, procs)
	}
	err := w.Launch(func(c *mpi.Comm) {
		r := c.Rank()
		if fresh {
			ks, err := f.build(c)
			if err != nil {
				panic(fmt.Sprintf("npb: rank %d setup: %v", r, err))
			}
			set[r] = ks
		} else {
			set[r].(Rebinder).Rebind(c)
		}
		fn(c, set[r], fresh)
	})
	if err != nil {
		return err // whatever a dead rank left half-written is dropped with it
	}
	f.put(set)
	return nil
}

// take removes and returns an idle set, nil when there is none.
func (f *Factory) take() []KernelSet {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.idle)
	if n == 0 {
		return nil
	}
	set := f.idle[n-1]
	f.idle[n-1] = nil
	f.idle = f.idle[:n-1]
	return set
}

// put keeps the set of a world that finished cleanly, if it can be rebound.
func (f *Factory) put(set []KernelSet) {
	for _, ks := range set {
		if _, ok := ks.(Rebinder); !ok {
			return
		}
	}
	f.mu.Lock()
	f.idle = append(f.idle, set)
	f.mu.Unlock()
}
