package lru

import (
	"fmt"
	"testing"
)

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	var evicted []string
	c := New(2, func(k string, v int) { evicted = append(evicted, fmt.Sprintf("%s=%d", k, v)) })
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 { // refreshes a: b is now oldest
		t.Fatalf("Get(a) = %d %v", v, ok)
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived though it was least recently used")
	}
	if got := fmt.Sprint(evicted); got != "[b=2]" {
		t.Errorf("evicted %s, want [b=2]", got)
	}
	c.Put("a", 10) // replaces in place: nothing leaves, a is freshest
	c.Put("d", 4)
	if v, _ := c.Get("a"); v != 10 {
		t.Errorf("a = %d after replace + insert, want 10", v)
	}
	if _, ok := c.Get("d"); !ok {
		t.Error("d missing after insert")
	}
	if got := fmt.Sprint(evicted); got != "[b=2 c=3]" {
		t.Errorf("evicted %s, want [b=2 c=3]", got)
	}
	if _, ok := New[string, int](1, nil).Get("absent"); ok {
		t.Error("empty cache hit")
	}
}

// TestEvictOldest: an owner that bounds by weight evicts by hand, in the
// same order and through the same callback capacity uses.
func TestEvictOldest(t *testing.T) {
	var evicted []string
	c := New(8, func(k string, _ int) { evicted = append(evicted, k) })
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")
	if !c.EvictOldest() || !c.EvictOldest() || c.EvictOldest() {
		t.Fatal("EvictOldest: want true, true, then false on an empty cache")
	}
	if got := fmt.Sprint(evicted); got != "[b a]" {
		t.Errorf("evicted %s, want [b a]", got)
	}
}
