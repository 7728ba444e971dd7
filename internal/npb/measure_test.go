package npb

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/timing"
)

// countingKernels is a deterministic KernelSet for testing the runner.
type countingKernels struct {
	runs     map[string]*atomic.Int64
	refreshs *atomic.Int64
	delay    time.Duration
	failOn   string
}

func (k *countingKernels) RunKernel(name string) error {
	if name == k.failOn {
		return errors.New("injected failure")
	}
	c, ok := k.runs[name]
	if !ok {
		return errors.New("unknown kernel " + name)
	}
	c.Add(1)
	if k.delay > 0 {
		time.Sleep(k.delay)
	}
	return nil
}

func (k *countingKernels) Refresh() { k.refreshs.Add(1) }

func newCountingFactory(names []string, delay time.Duration, failOn string) (*Factory, map[string]*atomic.Int64, *atomic.Int64) {
	runs := map[string]*atomic.Int64{}
	for _, n := range names {
		runs[n] = &atomic.Int64{}
	}
	refreshs := &atomic.Int64{}
	f := NewFactory(func(c *mpi.Comm) (KernelSet, error) {
		return &countingKernels{runs: runs, refreshs: refreshs, delay: delay, failOn: failOn}, nil
	})
	return f, runs, refreshs
}

func TestMeasureWindowCountsAndTiming(t *testing.T) {
	f, runs, refreshs := newCountingFactory([]string{"a", "b"}, 2*time.Millisecond, "")
	wm, err := MeasureWindowDetail(f, []string{"a", "b"}, timing.Protocol{Blocks: 3, Passes: 2}, MeasureOptions{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	secs := wm.PerPass
	// 2 ranks × (1 warmup + 3 blocks × 2 passes) = 14 executions each.
	if got := runs["a"].Load(); got != 14 {
		t.Errorf("kernel a ran %d times, want 14", got)
	}
	if got := runs["b"].Load(); got != 14 {
		t.Errorf("kernel b ran %d times, want 14", got)
	}
	// Refresh after warmup plus between blocks: 3 per rank.
	if got := refreshs.Load(); got != 6 {
		t.Errorf("refresh ran %d times, want 6", got)
	}
	// One pass runs both kernels with 2ms sleeps: >= ~4ms per pass.
	if secs < 0.003 {
		t.Errorf("per-pass %v s implausibly small", secs)
	}
}

func TestMeasureWindowEmptyWindow(t *testing.T) {
	f, _, _ := newCountingFactory([]string{"a"}, 0, "")
	if _, err := MeasureWindowDetail(f, nil, timing.Protocol{}, MeasureOptions{Procs: 1}); err == nil {
		t.Error("empty window should fail")
	}
}

func TestMeasureWindowKernelFailure(t *testing.T) {
	f, _, _ := newCountingFactory([]string{"a"}, 0, "a")
	_, err := MeasureWindowDetail(f, []string{"a"}, timing.Protocol{}, MeasureOptions{Procs: 2})
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("want injected failure surfaced, got %v", err)
	}
}

func TestMeasureWindowFactoryFailure(t *testing.T) {
	f := NewFactory(func(c *mpi.Comm) (KernelSet, error) { return nil, errors.New("no state") })
	_, err := MeasureWindowDetail(f, []string{"a"}, timing.Protocol{}, MeasureOptions{Procs: 1})
	if err == nil || !strings.Contains(err.Error(), "no state") {
		t.Errorf("want setup failure surfaced, got %v", err)
	}
}

func TestMeasureFullStructure(t *testing.T) {
	f, runs, _ := newCountingFactory([]string{"init", "a", "b", "final"}, 0, "")
	secs, _, err := MeasureFull(f, []string{"init"}, []string{"a", "b"}, 5, []string{"final"}, MeasureOptions{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if secs < 0 {
		t.Errorf("negative time %v", secs)
	}
	if got := runs["init"].Load(); got != 2 {
		t.Errorf("init ran %d times, want 2 (once per rank)", got)
	}
	if got := runs["a"].Load(); got != 10 {
		t.Errorf("loop kernel ran %d times, want 10", got)
	}
	if got := runs["final"].Load(); got != 2 {
		t.Errorf("final ran %d times, want 2", got)
	}
}

func TestMeasureFullValidation(t *testing.T) {
	f, _, _ := newCountingFactory([]string{"a"}, 0, "")
	if _, _, err := MeasureFull(f, nil, nil, 1, nil, MeasureOptions{Procs: 1}); err == nil {
		t.Error("empty loop should fail")
	}
	if _, _, err := MeasureFull(f, nil, []string{"a"}, 0, nil, MeasureOptions{Procs: 1}); err == nil {
		t.Error("zero trips should fail")
	}
}

func TestRunOnceReportOnRankZero(t *testing.T) {
	f, runs, _ := newCountingFactory([]string{"a"}, 0, "")
	reports := 0
	err := RunOnce(f, nil, []string{"a"}, 3, nil, 4, func(ks KernelSet) {
		reports++
		if ks == nil {
			t.Error("nil kernel set in report")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if reports != 1 {
		t.Errorf("report ran %d times, want 1", reports)
	}
	if got := runs["a"].Load(); got != 12 {
		t.Errorf("kernel ran %d times, want 12", got)
	}
}

// TestMeasureOptionsTrimFracSentinels pins the sentinel semantics at this
// layer too: -0.0 compares equal to zero and must select the default
// trim (never the raw-mean ablation), NaN must select the default
// instead of flowing into stats.TrimmedMean, and a negative trim is the
// raw mean. The recorded trim is the one the protocol applied.
func TestMeasureOptionsTrimFracSentinels(t *testing.T) {
	f, _, _ := newCountingFactory([]string{"a"}, 0, "")
	for _, tc := range []struct {
		name string
		trim float64
		want float64
	}{
		{"-0.0", math.Copysign(0, -1), timing.DefaultTrim},
		{"NaN", math.NaN(), timing.DefaultTrim},
		{"-1", -1, 0},
	} {
		wm, err := MeasureWindowDetail(f, []string{"a"}, timing.Protocol{Blocks: 3, Trim: tc.trim}, MeasureOptions{Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if wm.TrimFrac != tc.want {
			t.Errorf("%s selected TrimFrac %v, want %v", tc.name, wm.TrimFrac, tc.want)
		}
		if got := stats.TrimmedMean(wm.Blocks, wm.TrimFrac); got != wm.PerPass {
			t.Errorf("%s: PerPass %v not reproducible from Blocks+TrimFrac (%v)", tc.name, wm.PerPass, got)
		}
	}
}

func TestMeasureWindowDetailProvenance(t *testing.T) {
	f, _, _ := newCountingFactory([]string{"a"}, time.Millisecond, "")
	wm, err := MeasureWindowDetail(f, []string{"a"}, timing.Protocol{Blocks: 4, Passes: 2}, MeasureOptions{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(wm.Blocks) != 4 {
		t.Fatalf("got %d raw blocks, want 4", len(wm.Blocks))
	}
	if wm.TrimFrac != 0.34 || wm.Passes != 2 {
		t.Errorf("detail = %+v, want the resolved options recorded", wm)
	}
	if got := stats.TrimmedMean(wm.Blocks, wm.TrimFrac); got != wm.PerPass {
		t.Errorf("PerPass %v not reproducible from Blocks+TrimFrac (%v)", wm.PerPass, got)
	}
	for i, b := range wm.Blocks {
		if b < 0.001 {
			t.Errorf("block %d = %v s, below the 1ms kernel delay", i, b)
		}
	}
	if len(wm.Window) != 1 || wm.Window[0] != "a" {
		t.Errorf("window = %v", wm.Window)
	}
}

// TestMeasureWindowPhaseAttribution checks the measurement layer labels
// communication with the executing kernel, so observed runs report
// per-kernel breakdowns.
func TestMeasureWindowPhaseAttribution(t *testing.T) {
	ob := mpi.NewObserver(nil, nil)
	f := NewFactory(func(c *mpi.Comm) (KernelSet, error) {
		return exchangingKernels{c: c}, nil
	})
	_, err := MeasureWindowDetail(f, []string{"PING"}, timing.Protocol{Blocks: 2, Passes: 1}, MeasureOptions{
		Procs:     2,
		WorldOpts: []mpi.Option{mpi.WithObserver(ob)},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := ob.Registry().Snapshot()
	c, ok := snap.Counter("mpi.kernel.PING.send.count")
	if !ok || c.Value == 0 {
		t.Errorf("PING sends not attributed: %+v ok=%v", c, ok)
	}
}

// exchangingKernels swaps one float between two ranks per execution.
type exchangingKernels struct{ c *mpi.Comm }

func (k exchangingKernels) RunKernel(string) error {
	buf := []float64{float64(k.c.Rank())}
	out := make([]float64, 1)
	peer := 1 - k.c.Rank()
	k.c.Send(peer, 0, buf)
	k.c.Recv(peer, 0, out)
	return nil
}

func (exchangingKernels) Refresh() {}
