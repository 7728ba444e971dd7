// Package lru is the repository's one bounded least-recently-used map:
// move-to-front on every hit, evict from the back past capacity, tell the
// owner what left. It holds immutable answers for the serving layer —
// cluster's hot-key replicas and guard's stale-answer ladder are both
// instantiations — and npb's retained rank state, and is deliberately not
// synchronized: each owner already serializes access under the mutex that
// guards its other state.
package lru

import "container/list"

// Cache maps keys to values, retaining at most its capacity.
type Cache[K comparable, V any] struct {
	cap     int
	m       map[K]*list.Element
	order   *list.List // front = most recent
	onEvict func(K, V)
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache retaining at most cap entries (cap must be
// positive). onEvict, when non-nil, is called with each entry capacity
// pushes out, after it has left the cache.
func New[K comparable, V any](cap int, onEvict func(K, V)) *Cache[K, V] {
	return &Cache[K, V]{cap: cap, m: make(map[K]*list.Element), order: list.New(), onEvict: onEvict}
}

// Get returns the value stored under key, refreshing its recency.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val under key as the most recent entry — replacing the
// value in place when the key is present — and evicts the least recently
// used entries past capacity.
func (c *Cache[K, V]) Put(key K, val V) {
	if el, ok := c.m[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.m[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	for c.order.Len() > c.cap {
		c.EvictOldest()
	}
}

// EvictOldest pushes out the least recently used entry, as capacity would,
// for an owner that bounds what it retains by something other than a
// count. It reports whether there was one.
func (c *Cache[K, V]) EvictOldest() bool {
	back := c.order.Back()
	if back == nil {
		return false
	}
	e := c.order.Remove(back).(*entry[K, V])
	delete(c.m, e.key)
	if c.onEvict != nil {
		c.onEvict(e.key, e.val)
	}
	return true
}
