package obs

import (
	"sync"
	"testing"
)

func TestWindowQuantilesExact(t *testing.T) {
	w := NewWindowHistogram(16)
	if qs, n := w.Quantiles(0.5); n != 0 || qs[0] != 0 {
		t.Fatalf("empty window: qs=%v n=%d", qs, n)
	}
	for v := int64(1); v <= 10; v++ {
		w.Observe(v * 100)
	}
	qs, n := w.Quantiles(0, 0.5, 0.99, 1)
	if n != 10 {
		t.Fatalf("n = %d, want 10", n)
	}
	// Nearest-rank over 100..1000, the ⌈q·n⌉-th smallest: min, the 5th
	// (=500), the 10th (=1000), max.
	want := []int64{100, 500, 1000, 1000}
	for i := range want {
		if qs[i] != want[i] {
			t.Errorf("q[%d] = %d, want %d", i, qs[i], want[i])
		}
	}

	// Over three values p75 is the ⌈2.25⌉ = 3rd smallest, where
	// floor(q·(n−1)) would read the 2nd.
	w = NewWindowHistogram(16)
	for _, v := range []int64{30, 10, 20} {
		w.Observe(v)
	}
	if qs, _ := w.Quantiles(0.75); qs[0] != 30 {
		t.Errorf("p75 of {10,20,30} = %d, want 30", qs[0])
	}
}

// TestWindowSlides: once full, the window forgets the oldest values —
// quantiles reflect only the most recent cap observations.
func TestWindowSlides(t *testing.T) {
	w := NewWindowHistogram(4)
	for v := int64(1); v <= 100; v++ {
		w.Observe(v)
	}
	if w.Len() != 4 {
		t.Fatalf("len = %d, want 4", w.Len())
	}
	qs, _ := w.Quantiles(0, 1)
	if qs[0] != 97 || qs[1] != 100 {
		t.Errorf("window holds [%d..%d], want [97..100]", qs[0], qs[1])
	}
}

func TestWindowDefaultCap(t *testing.T) {
	w := NewWindowHistogram(0)
	for i := 0; i < DefaultWindowCap+10; i++ {
		w.Observe(int64(i))
	}
	if w.Len() != DefaultWindowCap {
		t.Errorf("len = %d, want %d", w.Len(), DefaultWindowCap)
	}
}

// TestWindowConcurrent: concurrent observers and scrapers must be safe
// (run with -race) and lose nothing once quiesced.
func TestWindowConcurrent(t *testing.T) {
	w := NewWindowHistogram(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				w.Observe(int64(i))
				w.Quantiles(0.5, 0.99)
			}
		}()
	}
	wg.Wait()
	if w.Len() != 800 {
		t.Errorf("len = %d, want 800", w.Len())
	}
}
