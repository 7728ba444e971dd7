package timing

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestMeasureWithFakeClock(t *testing.T) {
	// Each Now() call advances 1ms, so each block (start + stop = 2 calls)
	// appears to take 1ms regardless of passes.
	clock := &FakeClock{Steps: []time.Duration{time.Millisecond}}
	calls := 0
	res, err := Measure(func() { calls++ }, Protocol{Blocks: 4, Passes: 10}, Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 40 {
		t.Errorf("fn called %d times, want 40", calls)
	}
	if len(res.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(res.Blocks))
	}
	wantPerPass := 0.001 / 10
	for i, b := range res.Blocks {
		if diff := b - wantPerPass; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("block %d per-pass = %v, want %v", i, b, wantPerPass)
		}
	}
	if diff := res.PerPass - wantPerPass; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("PerPass = %v, want %v", res.PerPass, wantPerPass)
	}
}

func TestMeasureTrimsOutliers(t *testing.T) {
	// Blocks alternate 1ms..., with one 100ms outlier injected via steps.
	steps := []time.Duration{
		time.Millisecond, time.Millisecond, time.Millisecond,
		time.Millisecond, 100 * time.Millisecond, time.Millisecond,
		time.Millisecond, time.Millisecond, time.Millisecond,
		time.Millisecond,
	}
	clock := &FakeClock{Steps: steps}
	res, err := Measure(func() {}, Protocol{Blocks: 5, Passes: 1, Trim: 0.2}, Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	// With a 20% two-sided trim of 5 blocks, the 100ms block is dropped.
	if res.PerPass > 0.002 {
		t.Errorf("trimmed PerPass = %v, outlier not suppressed", res.PerPass)
	}
}

func TestMeasureDefaults(t *testing.T) {
	res, err := Measure(func() {}, Protocol{}, Options{Clock: &FakeClock{Steps: []time.Duration{time.Microsecond}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 3 {
		t.Errorf("the zero protocol should time 3 blocks, measured %d", len(res.Blocks))
	}
}

func TestMeasureNilFunc(t *testing.T) {
	if _, err := Measure(nil, Protocol{}, Options{}); err != ErrNilFunc {
		t.Errorf("want ErrNilFunc, got %v", err)
	}
}

func TestOnceWallClock(t *testing.T) {
	s := Once(func() { time.Sleep(2 * time.Millisecond) }, nil)
	if s < 0.001 {
		t.Errorf("Once measured %v s for a 2ms sleep", s)
	}
}

func TestFakeClockCycles(t *testing.T) {
	c := &FakeClock{Steps: []time.Duration{time.Second, 2 * time.Second}}
	t0 := c.Now()
	t1 := c.Now()
	t2 := c.Now()
	if d := t1.Sub(t0); d != 2*time.Second {
		t.Errorf("second step = %v, want 2s", d)
	}
	if d := t2.Sub(t1); d != time.Second {
		t.Errorf("cycled step = %v, want 1s", d)
	}
}

func TestFakeClockNoSteps(t *testing.T) {
	c := &FakeClock{}
	if !c.Now().Equal(c.Now()) {
		t.Error("FakeClock without steps should be frozen")
	}
}

// TestFakeClockConcurrentRanks pins the satellite contract: goroutine
// ranks may share a FakeClock (multi-rank deterministic traces need it).
// Every Now call must consume exactly one step, so the final reading is
// exact regardless of interleaving; the race detector checks safety.
func TestFakeClockConcurrentRanks(t *testing.T) {
	const ranks, callsPerRank = 8, 250
	c := &FakeClock{T: time.Unix(0, 0), Steps: []time.Duration{time.Millisecond}}
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < callsPerRank; i++ {
				c.Now()
			}
		}()
	}
	wg.Wait()
	want := time.Unix(0, 0).Add(ranks * callsPerRank * time.Millisecond)
	if got := c.T; !got.Equal(want) {
		t.Errorf("clock advanced to %v, want %v (steps lost or doubled)", got, want)
	}
}

// TestTrimFracSentinels pins the trim sentinel semantics: -0.0 compares
// equal to zero and must select the default trim, never the raw-mean
// ablation path; NaN must select the default rather than flow into the
// aggregation; and Resolved must keep a negative request, or the
// raw-mean ablation is lost.
func TestTrimFracSentinels(t *testing.T) {
	blocks := []float64{1, 2, 3, 4, 100}
	for _, tc := range []struct {
		name        string
		trim        float64
		wantApplied float64
	}{
		{"-0.0", math.Copysign(0, -1), DefaultTrim},
		{"NaN", math.NaN(), DefaultTrim},
		{"-1", -1, 0},
	} {
		p := Protocol{Blocks: len(blocks), Trim: tc.trim}
		if _, applied := p.Aggregate(blocks); applied != tc.wantApplied {
			t.Errorf("%s applied trim %v, want %v", tc.name, applied, tc.wantApplied)
		}
	}
	if r := (Protocol{Trim: -1}).Resolved(); r.Trim != -1 {
		t.Errorf("negative sentinel rewritten to %v; raw-mean ablation lost", r.Trim)
	}
}
