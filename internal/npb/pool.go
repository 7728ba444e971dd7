package npb

import (
	"sync"

	"repro/internal/lru"
)

// PoolKey names a benchmark configuration: everything a rank's set-up is
// a function of besides the rank itself.
type PoolKey struct {
	Bench   string
	Problem Problem
	Procs   int
}

// Pool keeps one factory per configuration for as long as its holder
// lives, so that the rank state one study's worlds left is rebound by the
// next study of that configuration instead of being built, exchanged and
// collected again. A server holds one for its lifetime; a study runner
// holds one for the studies it runs.
//
// What it retains is bounded in grid cells, the unit rank state grows in:
// the configurations it holds add up to at most maxCells, the least
// recently used leave first, and a configuration larger than the bound is
// never held — its worlds run through the caller's own factory and its
// state dies with that. A held configuration counts once, though its
// factory holds one set per world that ran at once (Factory). A factory
// that leaves is not stopped: worlds running through it finish, and their
// state is collected with it.
type Pool struct {
	mu        sync.Mutex
	factories *lru.Cache[PoolKey, *Factory]
	cells     int
	maxCells  int
}

// NewPool returns a pool that retains configurations of at most maxCells
// grid cells in all.
func NewPool(maxCells int) *Pool {
	p := &Pool{maxCells: maxCells}
	// Every configuration has a cell, so the count never binds before
	// the cells do.
	p.factories = lru.New(maxCells, func(k PoolKey, _ *Factory) { p.cells -= k.Problem.Cells() })
	return p
}

// Factory returns the factory worlds of the configuration run through:
// the one the pool holds, or own — which it then holds, if the
// configuration fits. A nil pool holds nothing.
func (p *Pool) Factory(key PoolKey, own *Factory) *Factory {
	if p == nil {
		return own
	}
	cells := key.Problem.Cells()
	if cells > p.maxCells {
		return own
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.factories.Get(key); ok {
		return f
	}
	p.factories.Put(key, own)
	p.cells += cells
	for p.cells > p.maxCells {
		p.factories.EvictOldest()
	}
	return own
}
