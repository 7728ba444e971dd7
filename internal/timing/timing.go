// Package timing implements the measurement methodology of the coupling
// paper: a kernel (or a window of kernels) is placed inside a loop so that
// the loop dominates execution time, the loop is timed with a monotonic
// clock, and everything outside the loop is excluded. A Protocol decides
// how many blocks and passes are timed and how the blocks are aggregated:
// from 3 blocks up, a trim of a third from each end (the median of 3 to 5
// blocks) suppresses scheduler noise; below 3 blocks, or when the raw mean
// is asked for, the blocks are averaged.
package timing

import (
	"errors"
	"math"
	"sync"
	"time"

	"repro/internal/stats"
)

// Clock abstracts the monotonic time source so the harness can be tested
// deterministically. The zero value of callers should use WallClock.
type Clock interface {
	// Now returns the current reading of a monotonic clock.
	Now() time.Time
}

// WallClock is the real monotonic clock.
var WallClock Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// FakeClock is a deterministic Clock for tests: each call to Now advances
// the clock by the next element of Steps (cycling when exhausted). Now is
// safe for concurrent callers (e.g. goroutine ranks recording a
// deterministic multi-rank trace): each caller observes one atomic
// advance, though the interleaving of concurrent callers is of course
// scheduler-dependent. Always pass a *FakeClock — copying one copies its
// mutex.
type FakeClock struct {
	mu    sync.Mutex
	T     time.Time
	Steps []time.Duration
	i     int
}

// Now advances the fake clock by the next step and returns the new reading.
func (f *FakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.Steps) > 0 {
		f.T = f.T.Add(f.Steps[f.i%len(f.Steps)])
		f.i++
	}
	return f.T
}

// Protocol is the measurement protocol: how many blocks are timed, how
// many passes of the measured function each block times, how the blocks'
// per-pass times are aggregated, and how many full application runs an
// actual time is the median of. Resolved and Aggregate are the one rule
// for its defaults and its trim; DESIGN.md's "Measurement protocol"
// section lists the presets built on it.
type Protocol struct {
	// Blocks is the number of independently timed blocks (0 = 3).
	Blocks int
	// Passes is how many times the measured function runs inside one
	// timed block (0 = 1). The paper runs each kernel "50 times"; the
	// equivalent here is Blocks×Passes.
	Passes int
	// Trim is the requested two-sided trim of the block times: see
	// Aggregate. A requested trim is part of a measurement's identity,
	// so Resolved leaves it as it is.
	Trim float64
	// ActualRuns is how many full application runs an actual time is the
	// median of (0 = 1).
	ActualRuns int
}

// DefaultTrim is the trim a zero Trim requests at 3 or more blocks: on a
// shared host block times have a heavy upper tail (GC cycles, scheduler
// interference), and at a handful of blocks trimming a third from each
// end is a median, far more robust than the mean.
const DefaultTrim = 0.34

// Resolved returns p with its zero counts resolved: 3 blocks, 1 pass, 1
// actual run. A negative count counts as zero.
func (p Protocol) Resolved() Protocol {
	if p.Blocks <= 0 {
		p.Blocks = 3
	}
	if p.Passes <= 0 {
		p.Passes = 1
	}
	if p.ActualRuns <= 0 {
		p.ActualRuns = 1
	}
	return p
}

// Aggregate returns the per-pass value of the timed blocks under the
// protocol's trim rule, and the trim it applied. A requested trim below
// 0 is the raw mean (applied trim 0). A requested trim of 0, -0.0 or NaN
// is DefaultTrim at 3 or more blocks and the raw mean below that. Any
// other trim is applied as requested: stats.TrimmedMean drops
// int(len(blocks)·trim) blocks from each end, so a small trim drops
// nothing at a small block count.
func (p Protocol) Aggregate(blocks []float64) (perPass, trim float64) {
	trim = p.Trim
	switch {
	case trim < 0:
		trim = 0
	case trim == 0 || math.IsNaN(trim):
		trim = 0
		if len(blocks) >= 3 {
			trim = DefaultTrim
		}
	}
	return stats.TrimmedMean(blocks, trim), trim
}

// Options carries what a measurement needs beyond its protocol.
type Options struct {
	// Clock is the time source (WallClock when nil).
	Clock Clock
}

// Result is one measurement's record: the value the predictors consume
// and the observations it was aggregated from. It is also the record the
// measurement cache stores (plan.Result), so its JSON is the cache log's.
type Result struct {
	// Seconds is the aggregated value the predictors consume: per-pass
	// seconds for isolated/window measurements, wall-clock seconds for
	// actual runs.
	Seconds float64 `json:"seconds"`
	// Raw holds the pre-aggregation observations (each timed block's
	// per-pass seconds, in block order); empty when the measurement
	// exposes no detail.
	Raw []float64 `json:"raw,omitempty"`
	// TrimFrac is the two-sided trim Aggregate applied to Raw.
	TrimFrac float64 `json:"trim_frac,omitempty"`
	// Passes is the number of passes each block timed.
	Passes int `json:"passes,omitempty"`
}

// Time is the one block loop: it resolves p, calls block once per block
// with the block's index and the passes it must time, divides the seconds
// block returns by those passes, and returns Aggregate's value of the
// blocks with the raw blocks, the applied trim and the passes. block
// returns the seconds of its timed region only; whatever it does outside
// that region is excluded, which is how the paper subtracts "the time
// required for the application beyond the given kernel".
func (p Protocol) Time(block func(b, passes int) float64) Result {
	p = p.Resolved()
	raw := make([]float64, p.Blocks)
	for b := range raw {
		raw[b] = block(b, p.Passes) / float64(p.Passes)
	}
	secs, trim := p.Aggregate(raw)
	return Result{Seconds: secs, Raw: raw, TrimFrac: trim, Passes: p.Passes}
}

// ErrNilFunc is returned when Measure is given a nil function.
var ErrNilFunc = errors.New("timing: nil function")

// Measure times fn under protocol p: each block is one Once of the
// block's passes of fn.
func Measure(fn func(), p Protocol, o Options) (Result, error) {
	if fn == nil {
		return Result{}, ErrNilFunc
	}
	return p.Time(func(_, passes int) float64 {
		return Once(func() {
			for i := 0; i < passes; i++ {
				fn()
			}
		}, o.Clock)
	}), nil
}

// Once times a single invocation of fn and returns the elapsed seconds.
func Once(fn func(), clock Clock) float64 {
	if clock == nil {
		clock = WallClock
	}
	start := clock.Now()
	fn()
	return clock.Now().Sub(start).Seconds()
}
