package npb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/timing"
)

// pooledKernels is a KernelSet that can be rebound. It knows the world that
// built it and whether a world holds it now, and its one kernel dies in the
// way its name says.
type pooledKernels struct {
	c      *mpi.Comm
	origin int64 // serial number of the world that built it
	held   atomic.Bool
}

func (k *pooledKernels) Rebind(c *mpi.Comm) { k.c = c }
func (k *pooledKernels) Refresh()           {}

func (k *pooledKernels) RunKernel(name string) error {
	switch name {
	case "ok":
	case "error":
		if k.c.Rank() == 1 {
			return errors.New("injected failure")
		}
	case "panic":
		if k.c.Rank() == 1 {
			panic("injected panic")
		}
	case "stall":
		if k.c.Rank() == 0 {
			k.c.Recv(1, 99, make([]float64, 1)) // nobody sends it: the watchdog ends the world
		}
	default:
		return errors.New("unknown kernel " + name)
	}
	return nil
}

// newPooledFactory returns a factory of rebindable fakes and the number of
// worlds it has built state for.
func newPooledFactory() (*Factory, *atomic.Int64) {
	var built atomic.Int64
	return pooledFactory(&built), &built
}

// pooledFactory returns a factory of rebindable fakes that counts the
// worlds it builds state for in built, which several factories may share.
func pooledFactory(built *atomic.Int64) *Factory {
	return NewFactory(func(c *mpi.Comm) (KernelSet, error) {
		// The ranks of one world agree on its serial number through rank 0.
		id := make([]float64, 1)
		if c.Rank() == 0 {
			id[0] = float64(built.Add(1))
		}
		c.Bcast(0, id)
		return &pooledKernels{c: c, origin: int64(id[0])}, nil
	})
}

func (f *Factory) idleSets() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.idle)
}

// driveWholeWorlds runs worlds tiny worlds of procs ranks from workers
// goroutines, as plan.Executor does at Parallel 2 and a server does at
// MeasureWorkers 2, each through the factory factoryFor returns for it. It
// asserts inside each world what a factory promises: every rank's state
// came from one world — all built here or all left by one earlier world,
// never a mix, which would leave the built ranks' set-up exchange
// unmatched — and no state serves two worlds at once. It returns how many
// worlds rebound their state.
func driveWholeWorlds(t *testing.T, procs, workers, worlds int, factoryFor func() *Factory) int64 {
	t.Helper()
	var recycled atomic.Int64
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
				f := factoryFor()
				origins := make([]int64, procs)
				freshOn := make([]bool, procs)
				err := f.Run(procs, func(c *mpi.Comm, ks KernelSet, fresh bool) {
					k := ks.(*pooledKernels)
					if !k.held.CompareAndSwap(false, true) {
						panic("state handed to two worlds at once")
					}
					defer k.held.Store(false)
					origins[c.Rank()], freshOn[c.Rank()] = k.origin, fresh
					c.Barrier()
					if c.Rank() != 0 {
						return
					}
					if !fresh {
						recycled.Add(1)
					}
					for r := range origins {
						if origins[r] != origins[0] || freshOn[r] != fresh {
							panic(fmt.Sprintf("mixed world: origins %v fresh %v", origins, freshOn))
						}
					}
				})
				if err != nil {
					t.Error(err)
				}
				if n := f.idleSets(); n > workers {
					t.Errorf("%d idle sets for %d workers", n, workers)
				}
			}
		}()
	}
	for i := 0; i < worlds; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return recycled.Load()
}

// TestRecycleWholeWorldsUnderParallelTwo drives one factory from two
// workers through 240 tiny worlds: whole worlds only (driveWholeWorlds),
// and the idle sets never outnumber the workers.
func TestRecycleWholeWorldsUnderParallelTwo(t *testing.T) {
	const procs, workers, worlds = 4, 2, 240
	f, built := newPooledFactory()
	recycled := driveWholeWorlds(t, procs, workers, worlds, func() *Factory { return f })
	if b := built.Load(); b < 1 || b > workers {
		t.Errorf("built state for %d worlds, want 1..%d: a world builds only when every set is in use", b, workers)
	}
	if got := built.Load() + recycled; got != worlds {
		t.Errorf("%d built + %d recycled worlds, want %d", built.Load(), recycled, worlds)
	}
}

// crashAt is an mpi.Injector that crashes one rank at its n-th operation of
// the world, once.
type crashAt struct {
	rank int
	n    int64
	ops  atomic.Int64
	done atomic.Bool
}

func (i *crashAt) Op(rank int, _ string) mpi.OpFault {
	if rank == i.rank && i.ops.Add(1) == i.n && i.done.CompareAndSwap(false, true) {
		return mpi.OpFault{Crash: true}
	}
	return mpi.OpFault{}
}

func (*crashAt) Message(int, int, int, int) mpi.MsgFault { return mpi.MsgFault{} }

// TestFailedWorldRecyclesNothing kills a world that holds the factory's one
// idle set in each of the ways a world dies. The set dies with it, so the
// next world — a harness retry — builds its own and runs clean.
func TestFailedWorldRecyclesNothing(t *testing.T) {
	for _, tc := range []struct {
		name, kernel string
		opts         []mpi.Option
		wantErr      string
	}{
		{"kernel error", "error", nil, "injected failure"},
		{"kernel panic", "panic", nil, "injected panic"},
		{"injected rank crash", "ok", []mpi.Option{mpi.WithInjector(&crashAt{rank: 2, n: 1})}, "injected fault"},
		{"receive watchdog", "stall", []mpi.Option{mpi.WithRecvTimeout(20 * time.Millisecond)}, "rank 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, built := newPooledFactory()
			measure := func(kernel string, opts []mpi.Option) (WorldStats, error) {
				_, world, err := MeasureWindowDetail(f, []string{kernel}, timing.Protocol{Blocks: 1}, MeasureOptions{Procs: 4, WorldOpts: opts})
				return world, err
			}
			if _, err := measure("ok", nil); err != nil {
				t.Fatal(err)
			}
			if n := f.idleSets(); n != 1 {
				t.Fatalf("%d idle sets after a clean world, want 1", n)
			}
			_, err := measure(tc.kernel, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want the world killed (%q), got %v", tc.wantErr, err)
			}
			if n := f.idleSets(); n != 0 {
				t.Errorf("%d idle sets after the world holding the only one died, want 0", n)
			}
			world, err := measure("ok", nil)
			if err != nil {
				t.Fatal(err)
			}
			if world.Recycled || built.Load() != 2 {
				t.Errorf("the retry after a dead world must build its state: recycled=%v, worlds built %d", world.Recycled, built.Load())
			}
			if world, err = measure("ok", nil); err != nil || !world.Recycled {
				t.Errorf("the world after the retry should rebind its set: recycled=%v err=%v", world.Recycled, err)
			}
		})
	}
}

// TestUnrebindableStateIsNeverPooled: FT and the runner's test doubles do
// not implement Rebinder; each of their worlds builds its own state.
func TestUnrebindableStateIsNeverPooled(t *testing.T) {
	f, _, _ := newCountingFactory([]string{"a"}, 0, "")
	for i := 0; i < 3; i++ {
		_, world, err := MeasureWindowDetail(f, []string{"a"}, timing.Protocol{}, MeasureOptions{Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if world.Recycled || f.idleSets() != 0 {
			t.Fatalf("world %d: recycled=%v, %d idle sets", i, world.Recycled, f.idleSets())
		}
	}
}
