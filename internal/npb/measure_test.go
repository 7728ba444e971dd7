package npb

import (
	"errors"
	"math"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
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
	res, _, err := MeasureWindowDetail(f, []string{"a", "b"}, timing.Protocol{Blocks: 3, Passes: 2}, MeasureOptions{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	secs := res.Seconds
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
	if _, _, err := MeasureWindowDetail(f, nil, timing.Protocol{}, MeasureOptions{Procs: 1}); err == nil {
		t.Error("empty window should fail")
	}
}

func TestMeasureWindowKernelFailure(t *testing.T) {
	f, _, _ := newCountingFactory([]string{"a"}, 0, "a")
	_, _, err := MeasureWindowDetail(f, []string{"a"}, timing.Protocol{}, MeasureOptions{Procs: 2})
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("want injected failure surfaced, got %v", err)
	}
}

func TestMeasureWindowFactoryFailure(t *testing.T) {
	f := NewFactory(func(c *mpi.Comm) (KernelSet, error) { return nil, errors.New("no state") })
	_, _, err := MeasureWindowDetail(f, []string{"a"}, timing.Protocol{}, MeasureOptions{Procs: 1})
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
		res, _, err := MeasureWindowDetail(f, []string{"a"}, timing.Protocol{Blocks: 3, Trim: tc.trim}, MeasureOptions{Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.TrimFrac != tc.want {
			t.Errorf("%s selected TrimFrac %v, want %v", tc.name, res.TrimFrac, tc.want)
		}
		if got := stats.TrimmedMean(res.Raw, res.TrimFrac); got != res.Seconds {
			t.Errorf("%s: Seconds %v not reproducible from Raw+TrimFrac (%v)", tc.name, res.Seconds, got)
		}
	}
}

func TestMeasureWindowDetailProvenance(t *testing.T) {
	f, _, _ := newCountingFactory([]string{"a"}, time.Millisecond, "")
	res, _, err := MeasureWindowDetail(f, []string{"a"}, timing.Protocol{Blocks: 4, Passes: 2}, MeasureOptions{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Raw) != 4 {
		t.Fatalf("got %d raw blocks, want 4", len(res.Raw))
	}
	if res.TrimFrac != 0.34 || res.Passes != 2 {
		t.Errorf("detail = %+v, want the resolved options recorded", res)
	}
	if got := stats.TrimmedMean(res.Raw, res.TrimFrac); got != res.Seconds {
		t.Errorf("Seconds %v not reproducible from Raw+TrimFrac (%v)", res.Seconds, got)
	}
	for i, b := range res.Raw {
		if b < 0.001 {
			t.Errorf("block %d = %v s, below the 1ms kernel delay", i, b)
		}
	}
}

// TestMeasureWindowPhaseAttribution checks the measurement layer labels
// communication with the executing kernel, so observed runs report
// per-kernel breakdowns.
func TestMeasureWindowPhaseAttribution(t *testing.T) {
	reg := obs.NewRegistry()
	ob := mpi.NewObserver(reg, nil)
	f := NewFactory(func(c *mpi.Comm) (KernelSet, error) {
		return exchangingKernels{c: c}, nil
	})
	_, _, err := MeasureWindowDetail(f, []string{"PING"}, timing.Protocol{Blocks: 2, Passes: 1}, MeasureOptions{
		Procs:     2,
		WorldOpts: []mpi.Option{mpi.WithObserver(ob)},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
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

// idleKernels is a KernelSet whose kernels do nothing.
type idleKernels struct{}

func (idleKernels) RunKernel(string) error { return nil }
func (idleKernels) Refresh()               {}

// steppingTrace returns a trace on a fake clock that steps by step at
// every read, and options attaching it to a one-rank world, whose clock
// reads then come in one fixed order.
func steppingTrace(step time.Duration) (*obs.Trace, MeasureOptions) {
	tr := obs.NewTrace(&timing.FakeClock{T: time.Unix(0, 0), Steps: []time.Duration{step}})
	return tr, MeasureOptions{Procs: 1, WorldOpts: []mpi.Option{mpi.WithObserver(mpi.NewObserver(nil, tr))}}
}

// splitSpans returns a trace's kernel spans and its barrier spans, each in
// record order.
func splitSpans(tr *obs.Trace) (kernels, barriers []obs.Span) {
	for _, s := range tr.Spans() {
		switch {
		case s.Track == obs.TrackKernels:
			kernels = append(kernels, s)
		case s.Track == obs.TrackMPI && s.Name == "barrier":
			barriers = append(barriers, s)
		}
	}
	return kernels, barriers
}

// TestStampSiteDoesNotAllocate pins the one stamp site. On a stepping
// fake clock attached as the trace's clock, a timed region's seconds are
// exactly the steps between its edges — one read per kernel entry, one at
// the last kernel's exit, two for the closing barrier's span and one for
// the end stamp — and every kernel span of a region lies between the
// barriers that bracket it. Untraced, a region's stamps allocate nothing.
func TestStampSiteDoesNotAllocate(t *testing.T) {
	const step = time.Millisecond
	f := NewFactory(func(*mpi.Comm) (KernelSet, error) { return idleKernels{}, nil })
	inside := func(k, lead, closing obs.Span) bool {
		return k.Start >= lead.Start+lead.Elapsed && k.Start+k.Elapsed <= closing.Start
	}

	tr, o := steppingTrace(step)
	secs, _, err := MeasureFull(f, []string{"INIT"}, []string{"A", "B"}, 3, []string{"FINAL"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if want := (8 + 4) * step; secs != want.Seconds() { // 8 kernel entries
		t.Errorf("full run = %v s, want %v", secs, want.Seconds())
	}
	kernels, barriers := splitSpans(tr)
	if len(kernels) != 8 || len(barriers) != 2 {
		t.Fatalf("full run traced %d kernels and %d barriers, want 8 and 2", len(kernels), len(barriers))
	}
	for _, k := range kernels {
		if !inside(k, barriers[0], barriers[1]) {
			t.Errorf("kernel span %+v outside the region %+v..%+v", k, barriers[0], barriers[1])
		}
	}

	tr, o = steppingTrace(step)
	res, _, err := MeasureWindowDetail(f, []string{"A", "B"}, timing.Protocol{Blocks: 3, Passes: 2}, o)
	if err != nil {
		t.Fatal(err)
	}
	perPass := (4 + 4) * step.Seconds() / 2 // a block: 4 kernel entries
	for b, s := range res.Raw {
		if s != perPass {
			t.Errorf("block %d = %v s a pass, want %v", b, s, perPass)
		}
	}
	if res.Seconds != perPass {
		t.Errorf("window = %v s, want %v", res.Seconds, perPass)
	}
	kernels, barriers = splitSpans(tr)
	if len(kernels) != 2+3*4 || len(barriers) != 2*3 {
		t.Fatalf("window traced %d kernels and %d barriers, want 14 and 6", len(kernels), len(barriers))
	}
	for i, k := range kernels[2:] { // after the untimed warm-up pass
		if b := i / 4; !inside(k, barriers[2*b], barriers[2*b+1]) {
			t.Errorf("block %d kernel span %+v outside its region", b, k)
		}
	}

	err = mpi.Run(1, func(c *mpi.Comm) {
		var world WorldStats
		st := measuringStamps(c, false, &world)
		body := func() { runApp(c, idleKernels{}, []string{"INIT"}, []string{"A", "B"}, 3, []string{"FINAL"}, &st) }
		if n := testing.AllocsPerRun(100, func() { timed(c, &st, &world, body) }); n != 0 {
			t.Errorf("an untraced region allocates %v times, want 0", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBuiltWorldForcesNoCollection: a world that builds its rank state is
// readied as a recycled one is. It used to run runtime.GC before its first
// timed region, a mark of the process's whole live heap — a server's cache
// and pooled configurations included — on every cold configuration.
func TestBuiltWorldForcesNoCollection(t *testing.T) {
	forced := []metrics.Sample{{Name: "/gc/cycles/forced:gc-cycles"}}
	read := func() uint64 {
		metrics.Read(forced)
		return forced[0].Value.Uint64()
	}
	built := func() *Factory {
		return NewFactory(func(*mpi.Comm) (KernelSet, error) { return idleKernels{}, nil })
	}
	o := MeasureOptions{Procs: 4}
	before := read()
	_, window, err := MeasureWindowDetail(built(), []string{"A", "B"}, timing.Protocol{Blocks: 2, Passes: 1}, o)
	if err != nil {
		t.Fatal(err)
	}
	_, full, err := MeasureFull(built(), []string{"INIT"}, []string{"A", "B"}, 2, []string{"FINAL"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if window.Recycled || full.Recycled {
		t.Fatalf("recycled = %v, %v; want two built worlds", window.Recycled, full.Recycled)
	}
	if n := read() - before; n != 0 {
		t.Errorf("two built worlds forced %d collections, want 0", n)
	}
}

// TestKernelSpansEncloseTheirMPISpans: with a trace attached, the stamps
// record one span per kernel execution on the rank's kernels track,
// closed at the next kernel edge, enclosing the MPI spans the rank
// recorded in between because both come off the world's clock. Without a
// trace, SetPhase still labels the traffic.
func TestKernelSpansEncloseTheirMPISpans(t *testing.T) {
	f := NewFactory(func(c *mpi.Comm) (KernelSet, error) { return haloThenBarrier{c: c}, nil })
	tr := obs.NewTrace(nil)
	// The barrier RunOnce ends with lies outside every kernel.
	if err := RunOnce(f, nil, []string{"COPY_FACES", "ADD"}, 1, nil, 2, nil, mpi.WithObserver(mpi.NewObserver(nil, tr))); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	kernels := map[[2]any]obs.Span{}
	for _, s := range spans {
		if s.Track == obs.TrackKernels {
			if s.Parent != -1 || s.Elapsed < 0 {
				t.Errorf("kernel span = %+v", s)
			}
			kernels[[2]any{s.Rank, s.Name}] = s
		}
	}
	if len(kernels) != 4 {
		t.Fatalf("kernel spans = %v, want COPY_FACES and ADD on both ranks", kernels)
	}
	within := func(in, out obs.Span) bool {
		return in.Start >= out.Start && in.Start+in.Elapsed <= out.Start+out.Elapsed
	}
	var barriers [2]int
	for _, s := range spans {
		if s.Track != obs.TrackMPI {
			continue
		}
		switch {
		case strings.HasSuffix(s.Detail, "tag=3"): // the halo exchange; barriers move messages too
			if k := kernels[[2]any{s.Rank, "COPY_FACES"}]; !within(s, k) {
				t.Errorf("rank %d %s %+v escapes its kernel %+v", s.Rank, s.Name, s, k)
			}
		case s.Name == "barrier":
			barriers[s.Rank]++
			inAdd := within(s, kernels[[2]any{s.Rank, "ADD"}])
			if first := barriers[s.Rank] == 1; inAdd != first {
				t.Errorf("rank %d barrier %d inside ADD = %v", s.Rank, barriers[s.Rank], inAdd)
			}
		}
	}

	reg := obs.NewRegistry()
	if err := RunOnce(f, nil, []string{"COPY_FACES", "ADD"}, 1, nil, 2, nil, mpi.WithObserver(mpi.NewObserver(reg, nil))); err != nil {
		t.Fatal(err)
	}
	if c, ok := reg.Snapshot().Counter("mpi.kernel.COPY_FACES.send.count"); !ok || c.Value != 1 {
		t.Errorf("untraced COPY_FACES send.count = %+v %v, want 1", c, ok)
	}
}

// haloThenBarrier sends rank 0's halo to rank 1 in COPY_FACES and
// synchronises in ADD.
type haloThenBarrier struct{ c *mpi.Comm }

func (k haloThenBarrier) RunKernel(name string) error {
	switch {
	case name == "ADD":
		k.c.Barrier()
	case k.c.Rank() == 0:
		k.c.Send(1, 3, []float64{1, 2})
	default:
		k.c.Recv(0, 3, make([]float64, 2))
	}
	return nil
}

func (haloThenBarrier) Refresh() {}
