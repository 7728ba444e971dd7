package npb

import (
	"sync/atomic"
	"testing"
)

func poolKey(n, procs int) PoolKey {
	return PoolKey{Bench: "BT", Problem: TinyProblem(n, 1), Procs: procs}
}

// TestPoolOneFactoryPerConfiguration: the second study of a configuration
// runs its worlds through the first one's factory and rebinds its state;
// another rank count is another configuration; a nil pool is no pool.
func TestPoolOneFactoryPerConfiguration(t *testing.T) {
	var built atomic.Int64
	p := NewPool(1 << 16)
	measure := func(f *Factory) WindowMeasurement {
		t.Helper()
		wm, err := MeasureWindowDetail(f, []string{"ok"}, MeasureOptions{Procs: 4, Blocks: 1})
		if err != nil {
			t.Fatal(err)
		}
		return wm
	}
	first, second, other := pooledFactory(&built), pooledFactory(&built), pooledFactory(&built)
	if got := p.Factory(poolKey(12, 4), first); got != first {
		t.Fatal("an empty pool did not adopt the caller's factory")
	}
	if measure(first).World.Recycled {
		t.Fatal("the first world of a configuration rebound state")
	}
	got := p.Factory(poolKey(12, 4), second)
	if got != first {
		t.Fatal("the second study of a configuration got a factory of its own")
	}
	if !measure(got).World.Recycled || built.Load() != 1 {
		t.Errorf("the second study built state again (%d worlds built)", built.Load())
	}
	if got := p.Factory(poolKey(12, 9), other); got != other {
		t.Error("another rank count shared the configuration's factory")
	}
	var none *Pool
	if got := none.Factory(poolKey(12, 4), second); got != second {
		t.Error("a nil pool returned something other than the caller's factory")
	}
}

// TestPoolBoundsRetainedCells: configurations leave least recently used
// first once their cells pass the bound, one that alone exceeds it is
// never held — and pushes nothing out — and a configuration that left is
// built again.
func TestPoolBoundsRetainedCells(t *testing.T) {
	var built atomic.Int64
	p := NewPool(3000)
	fac := func() *Factory { return pooledFactory(&built) }
	a, b := fac(), fac()
	p.Factory(poolKey(12, 4), a) // 1 728 cells
	p.Factory(poolKey(10, 4), b) // 1 000 more
	if got := p.Factory(poolKey(12, 4), fac()); got != a {
		t.Fatal("two configurations inside the bound: the first is gone")
	}
	big := fac()
	for i := 0; i < 2; i++ {
		if got := p.Factory(poolKey(20, 4), big); got != big {
			t.Fatal("a configuration larger than the bound was answered from the pool")
		}
		if again := fac(); p.Factory(poolKey(20, 4), again) != again {
			t.Fatal("a configuration larger than the bound was held")
		}
	}
	if p.Factory(poolKey(12, 4), fac()) != a || p.Factory(poolKey(10, 4), fac()) != b {
		t.Fatal("an oversized configuration pushed a held one out")
	}
	// 512 more cells pass the bound: 12³, used before 10³, leaves.
	c := fac()
	p.Factory(poolKey(8, 4), c)
	if p.cells != 1512 {
		t.Errorf("pool counts %d cells, want 10³ + 8³", p.cells)
	}
	if p.Factory(poolKey(10, 4), fac()) != b || p.Factory(poolKey(8, 4), fac()) != c {
		t.Error("the more recently used configurations did not stay")
	}
	rebuilt := fac()
	if got := p.Factory(poolKey(12, 4), rebuilt); got != rebuilt {
		t.Error("the evicted configuration's factory was still handed out")
	}
}

// TestPoolFailedWorldReturnsNothing: the pool outlives a study, a dead
// world's state still does not — the study after it builds.
func TestPoolFailedWorldReturnsNothing(t *testing.T) {
	var built atomic.Int64
	p := NewPool(1 << 16)
	measure := func(kernel string) (WindowMeasurement, error) {
		// Each call is a new study with a factory of its own, as an
		// engine has; the pool decides which one runs the world.
		f := p.Factory(poolKey(12, 4), pooledFactory(&built))
		return MeasureWindowDetail(f, []string{kernel}, MeasureOptions{Procs: 4, Blocks: 1})
	}
	if _, err := measure("ok"); err != nil {
		t.Fatal(err)
	}
	if _, err := measure("error"); err == nil {
		t.Fatal("the failing kernel did not fail its world")
	}
	wm, err := measure("ok")
	if err != nil {
		t.Fatal(err)
	}
	if wm.World.Recycled || built.Load() != 2 {
		t.Errorf("the study after a dead world: recycled=%v, %d worlds built; want a second build", wm.World.Recycled, built.Load())
	}
	if wm, err = measure("ok"); err != nil || !wm.World.Recycled {
		t.Errorf("the study after that should rebind: recycled=%v err=%v", wm.World.Recycled, err)
	}
}

// TestPoolConcurrentStudiesKeepWorldsWhole: two studies of one
// configuration at once — a server at MeasureWorkers 2 — each asking the
// pool ahead of every world with a factory of its own in hand. Worlds stay
// whole, and all but the one or two that found every set in use rebind.
func TestPoolConcurrentStudiesKeepWorldsWhole(t *testing.T) {
	const procs, workers, worlds = 4, 2, 120
	var built atomic.Int64
	p := NewPool(1 << 16)
	recycled := driveWholeWorlds(t, procs, workers, worlds, func() *Factory {
		return p.Factory(poolKey(12, procs), pooledFactory(&built))
	})
	if b := built.Load(); b < 1 || b > workers {
		t.Errorf("built state for %d worlds, want 1..%d", b, workers)
	}
	if got := built.Load() + recycled; got != worlds {
		t.Errorf("%d built + %d recycled worlds, want %d", built.Load(), recycled, worlds)
	}
}
