// Package memmodel reproduces the paper's memory-subsystem observation:
// as the problem size (and hence the per-processor working set) scales,
// coupling values go through a finite number of major transitions, one per
// cache-capacity boundary. It provides streaming kernels with a
// configurable working set, a harness.Workload pairing two of them, a
// sweep that measures the pair coupling across working-set sizes on the
// host's real cache hierarchy, and a detector for the transitions.
//
// The mechanism: two kernels that each stream read-modify-write over their
// own array of W bytes run fast in isolation whenever W fits in a cache
// level (the loop reuses the cached array), but run together they need 2W;
// in the band where W fits and 2W does not, the kernels evict each other
// and the pair coupling rises above 1 (destructive). Once W alone exceeds
// the cache, both the isolated and chained runs miss everywhere and the
// coupling falls back toward 1. Each cache level contributes one such
// plateau change, so C(W) shows a small, finite number of transitions.
package memmodel

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/timing"
)

// Kernel streams read-modify-write over its array once per Run: the
// canonical cache-pressure workload.
type Kernel struct {
	// KernelName identifies the kernel.
	KernelName string
	// Data is the kernel's working set.
	Data []float64
	// sink defeats dead-code elimination.
	sink float64
}

// NewKernel allocates a streaming kernel with a working set of the given
// size in bytes (rounded down to whole float64 words, minimum one).
func NewKernel(name string, bytes int) *Kernel {
	words := bytes / 8
	if words < 1 {
		words = 1
	}
	d := make([]float64, words)
	for i := range d {
		d[i] = float64(i%17) * 0.25
	}
	return &Kernel{KernelName: name, Data: d}
}

// Run performs one read-modify-write pass over the working set.
func (k *Kernel) Run() {
	s := k.sink
	d := k.Data
	for i := range d {
		v := d[i]*0.999 + 0.001
		d[i] = v
		s += v
	}
	k.sink = s
}

// WorkingSetBytes returns the kernel's array size in bytes.
func (k *Kernel) WorkingSetBytes() int { return len(k.Data) * 8 }

// NewSharedKernel returns a kernel that streams over another kernel's
// array instead of its own: the chained pair's combined working set is W
// rather than 2W, so where the disjoint pair shows destructive coupling
// (mutual eviction) the shared pair shows neutral-to-constructive coupling
// — the producer/consumer data reuse the paper attributes constructive
// coupling to.
func NewSharedKernel(name string, owner *Kernel) *Kernel {
	return &Kernel{KernelName: name, Data: owner.Data}
}

// PairWorkload adapts two kernels into a harness.Workload whose loop ring
// is [A, B], measured with real wall-clock timing under the options'
// protocol. MinBlockBytes controls how many bytes each timed block streams
// (per-pass times below the clock resolution are otherwise meaningless);
// the default is 64 MiB.
type PairWorkload struct {
	A, B *Kernel
	// MinBlockBytes sets the streaming volume of one timed block
	// (default 64 MiB).
	MinBlockBytes int
}

// Name implements harness.Workload.
func (p *PairWorkload) Name() string {
	return fmt.Sprintf("memmodel(%s,%s,%dB)", p.A.KernelName, p.B.KernelName, p.A.WorkingSetBytes())
}

// Kernels implements harness.Workload: no pre/post kernels, loop = [A, B].
func (p *PairWorkload) Kernels() (pre, loop, post []string) {
	return nil, []string{p.A.KernelName, p.B.KernelName}, nil
}

func (p *PairWorkload) kernel(name string) (*Kernel, error) {
	switch name {
	case p.A.KernelName:
		return p.A, nil
	case p.B.KernelName:
		return p.B, nil
	}
	return nil, fmt.Errorf("memmodel: unknown kernel %q", name)
}

// MeasureWindow implements harness.Workload with wall-clock timing: o's
// protocol times the blocks and aggregates them, and the streaming volume
// of a block, not o.Passes, sets the passes each block times.
func (p *PairWorkload) MeasureWindow(window []string, o harness.Options) (float64, error) {
	ks := make([]*Kernel, len(window))
	bytesPerPass := 0
	for i, name := range window {
		k, err := p.kernel(name)
		if err != nil {
			return 0, err
		}
		ks[i] = k
		bytesPerPass += k.WorkingSetBytes()
	}
	if bytesPerPass == 0 {
		return 0, fmt.Errorf("memmodel: empty window")
	}
	minBytes := p.MinBlockBytes
	if minBytes <= 0 {
		minBytes = 64 << 20
	}
	proto := o.Protocol()
	proto.Passes = max(minBytes/bytesPerPass, 1)
	res, err := timing.Measure(func() {
		for _, k := range ks {
			k.Run()
		}
	}, proto, timing.Options{})
	if err != nil {
		return 0, err
	}
	return res.Seconds, nil
}

// MeasureActual implements harness.Workload: trips passes over the ring.
func (p *PairWorkload) MeasureActual(trips int, o harness.Options) (float64, error) {
	per, err := p.MeasureWindow([]string{p.A.KernelName, p.B.KernelName}, o)
	if err != nil {
		return 0, err
	}
	return float64(trips) * per, nil
}

// SweepTrim is the trim a sweep point's blocks are aggregated with: -1,
// the raw mean. Over ten 3-block runs of the §4.1 sweep on a 2-vCPU Xeon
// host, with every point's coupling computed from the same blocks under
// both rules, the raw mean's median per-point IQR was 0.113 against
// 0.145 for the median of the blocks (timing.DefaultTrim).
const SweepTrim = -1

// SweepPoint is one working-set size's measured pair coupling.
type SweepPoint struct {
	// Bytes is the per-kernel working-set size.
	Bytes int
	// C is the measured pair coupling C_AB.
	C float64
}

// Sweep measures the pair coupling of two disjoint streaming kernels at
// each working-set size under o's protocol and returns the series in
// input order. minBlockBytes is passed to PairWorkload (zero for the
// default).
func Sweep(sizes []int, o harness.Options, minBlockBytes int) ([]SweepPoint, error) {
	return sweepPairs(sizes, o, minBlockBytes, func(_ *Kernel, bytes int) *Kernel { return NewKernel("B", bytes) })
}

// SweepShared is Sweep for a producer/consumer pair sharing one array:
// the second kernel re-reads the first's working set. Comparing its series
// against Sweep's at equal sizes separates capacity effects (present only
// in the disjoint pair) from fixed chaining overheads.
func SweepShared(sizes []int, o harness.Options, minBlockBytes int) ([]SweepPoint, error) {
	return sweepPairs(sizes, o, minBlockBytes, func(a *Kernel, _ int) *Kernel { return NewSharedKernel("B", a) })
}

// sweepPairs measures the pair of kernel A and the B that newB makes for
// it at each working-set size.
func sweepPairs(sizes []int, o harness.Options, minBlockBytes int, newB func(a *Kernel, bytes int) *Kernel) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(sizes))
	for _, bytes := range sizes {
		a := NewKernel("A", bytes)
		p := &PairWorkload{A: a, B: newB(a, bytes), MinBlockBytes: minBlockBytes}
		var t [3]float64
		for i, w := range [3][]string{{"A"}, {"B"}, {"A", "B"}} {
			v, err := p.MeasureWindow(w, o)
			if err != nil {
				return nil, err
			}
			t[i] = v
		}
		c, err := core.PairCoupling(t[2], t[0], t[1])
		if err != nil {
			return nil, err
		}
		points = append(points, SweepPoint{Bytes: bytes, C: c})
	}
	return points, nil
}

// GeometricSizes returns count working-set sizes from lo to hi bytes,
// geometrically spaced — the natural axis for cache-boundary sweeps.
func GeometricSizes(lo, hi, count int) []int {
	if count < 2 || lo <= 0 || hi <= lo {
		return []int{lo}
	}
	sizes := make([]int, count)
	ratio := float64(hi) / float64(lo)
	for i := range sizes {
		f := float64(i) / float64(count-1)
		sizes[i] = int(float64(lo) * math.Pow(ratio, f))
	}
	return sizes
}

// Transitions returns the indices i (into points, i >= 1) where the
// coupling value changes by more than threshold relative to the previous
// point — the "major value changes" of the paper's observation. A smooth
// series yields few transitions; the count is what the finite-transitions
// claim is about.
func Transitions(points []SweepPoint, threshold float64) []int {
	cs := make([]float64, len(points))
	for i, p := range points {
		cs[i] = p.C
	}
	return TransitionsSeries(cs, threshold)
}
