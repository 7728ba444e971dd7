package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/bt"
	"repro/internal/obs"
	"repro/internal/timing"
)

// fixedClock returns a trace pinned to a frozen fake clock plus its
// epoch, so tests are independent of wall time.
func fixedClock() (*obs.Trace, time.Time) {
	base := time.Unix(1000, 0)
	return obs.NewTrace(&timing.FakeClock{T: base}), base
}

// kernel is one kernel execution as the observer records it.
func kernel(rank int, name string, elapsed time.Duration) obs.Span {
	return obs.Span{Rank: rank, Name: name, Elapsed: elapsed}
}

func TestRecordAndEvents(t *testing.T) {
	tr, base := fixedClock()
	tr.Record(base, kernel(0, "A", 5*time.Millisecond))
	tr.Record(base.Add(time.Millisecond), kernel(1, "B", 2*time.Millisecond))
	tr.Record(base, obs.Span{Track: obs.TrackMPI, Rank: 0, Name: "send"})
	tr.Root().StartChild("execute", "").End()
	ev := KernelView(tr.Spans())
	if len(ev) != 2 {
		t.Fatalf("kernel view holds %d of 4 spans, want the 2 kernel executions", len(ev))
	}
	if ev[0].Name != "A" || ev[0].Rank != 0 || ev[0].Elapsed != 5*time.Millisecond {
		t.Errorf("event 0 = %+v", ev[0])
	}
	if ev[0].Start != 0 || ev[1].Start != time.Millisecond {
		t.Errorf("starts = %v, %v (epoch should be the fake clock's reading)", ev[0].Start, ev[1].Start)
	}
	// The view must be a copy.
	ev[0].Name = "mutated"
	if KernelView(tr.Spans())[0].Name != "A" {
		t.Error("KernelView returned aliased storage")
	}
}

func TestProfiles(t *testing.T) {
	tr, base := fixedClock()
	tr.Record(base, kernel(0, "SOLVE", 10*time.Millisecond))
	tr.Record(base, kernel(1, "SOLVE", 20*time.Millisecond))
	tr.Record(base, kernel(0, "ADD", 1*time.Millisecond))
	ps := KernelView(tr.Spans()).Profiles()
	if len(ps) != 2 {
		t.Fatalf("got %d profiles", len(ps))
	}
	// Sorted by total descending: SOLVE first.
	if ps[0].Kernel != "SOLVE" || ps[0].Count != 2 || ps[0].Total != 30*time.Millisecond {
		t.Errorf("profile 0 = %+v", ps[0])
	}
	if ps[0].Mean() != 15*time.Millisecond || ps[0].Min != 10*time.Millisecond || ps[0].Max != 20*time.Millisecond {
		t.Errorf("profile stats = %+v", ps[0])
	}
	if (Profile{}).Mean() != 0 {
		t.Error("empty profile mean should be 0")
	}
}

func TestTimelineRendering(t *testing.T) {
	tr, epoch := fixedClock()
	tr.Record(epoch, kernel(0, "ALPHA", 50*time.Millisecond))
	tr.Record(epoch.Add(50*time.Millisecond), kernel(1, "BETA", 50*time.Millisecond))
	out := KernelView(tr.Spans()).Timeline(40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "A") {
		t.Errorf("rank 0 lane missing marker:\n%s", out)
	}
	if !strings.Contains(lines[2], "B") {
		t.Errorf("rank 1 lane missing marker:\n%s", out)
	}
	// Rank 0 ran in the first half, rank 1 in the second.
	lane0 := lines[1][strings.Index(lines[1], "|")+1:]
	if strings.LastIndex(lane0, "A") > len(lane0)*3/4 {
		t.Errorf("rank 0 activity should sit in the first half:\n%s", out)
	}
}

func TestTimelineEmpty(t *testing.T) {
	if out := KernelView(nil).Timeline(40); !strings.Contains(out, "no events") {
		t.Errorf("empty timeline = %q", out)
	}
}

func TestStringProfileTable(t *testing.T) {
	tr, base := fixedClock()
	tr.Record(base, kernel(0, "X_SOLVE", 3*time.Millisecond))
	out := KernelView(tr.Spans()).String()
	if !strings.Contains(out, "X_SOLVE") || !strings.Contains(out, "count") {
		t.Errorf("profile table:\n%s", out)
	}
}

// TestInjectedClockDeterministicTrace pins the injected-clock contract at
// the seam kernels are really recorded at, the measurement layer's stamps:
// with a stepping fake clock on the observer's trace, every recorded start
// and duration is exact, so two runs of the same workload produce
// identical traces.
func TestInjectedClockDeterministicTrace(t *testing.T) {
	step := time.Millisecond
	f := npb.NewFactory(func(*mpi.Comm) (npb.KernelSet, error) { return idleKernels{}, nil })
	run := func() []obs.Span {
		tr := obs.NewTrace(&timing.FakeClock{T: time.Unix(0, 0), Steps: []time.Duration{step}})
		err := npb.RunOnce(f, nil, []string{"A", "B"}, 1, nil, 1, nil, mpi.WithObserver(mpi.NewObserver(nil, tr)))
		if err != nil {
			t.Fatal(err)
		}
		return KernelView(tr.Spans())
	}
	ev := run()
	// The epoch consumes one tick and each kernel edge one more: a kernel
	// runs from its own entry stamp to the next edge.
	want := []obs.Span{
		{Rank: 0, Name: "A", Start: 1 * step, Elapsed: step, Parent: -1},
		{Rank: 0, Name: "B", Start: 2 * step, Elapsed: step, Parent: -1},
	}
	if len(ev) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(ev), len(want), ev)
	}
	for i, w := range want {
		if ev[i] != w {
			t.Errorf("event %d = %+v, want %+v", i, ev[i], w)
		}
		if again := run(); again[i] != ev[i] {
			t.Errorf("event %d differs between runs: %+v vs %+v", i, again[i], ev[i])
		}
	}
}

// idleKernels is a KernelSet whose kernels do nothing.
type idleKernels struct{}

func (idleKernels) RunKernel(string) error { return nil }
func (idleKernels) Refresh()               {}

func TestNilClockFallsBackToWall(t *testing.T) {
	before := time.Now()
	tr := obs.NewTrace(nil)
	if now := tr.Now(); now.Before(before) || now.Sub(before) > time.Minute {
		t.Errorf("nil clock should fall back to the wall clock, read %v at %v", now, before)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := obs.NewTrace(nil)
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Record(tr.Now(), kernel(r, "K", time.Microsecond))
			}
		}()
	}
	wg.Wait()
	if got := len(KernelView(tr.Spans())); got != 800 {
		t.Errorf("recorded %d events, want 800", got)
	}
}

// TestObserverTracesBenchmarkRun: a real multi-rank BT run with nothing
// but an observer attached yields one kernel span per RunKernel — the
// factory is not wrapped, the measurement layer's stamps are the instrument.
func TestObserverTracesBenchmarkRun(t *testing.T) {
	cfg := bt.Config{Problem: npb.TinyProblem(8, 2), Procs: 4}
	factory, err := bt.Factory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(nil)
	pre, loop, post := bt.KernelNames()
	const trips = 2
	err = npb.RunOnce(factory, pre, loop, trips, post, cfg.Procs, nil, mpi.WithObserver(mpi.NewObserver(nil, tr)))
	if err != nil {
		t.Fatal(err)
	}
	ks := KernelView(tr.Spans())
	// 4 ranks × (1 pre + 2×5 loop + 1 post) = 48 events.
	if got := len(ks); got != 48 {
		t.Errorf("traced %d events, want 48", got)
	}
	counts := map[string]int{}
	for _, p := range ks.Profiles() {
		counts[p.Kernel] = p.Count
	}
	if counts[bt.KXSolve] != 8 { // 4 ranks × 2 trips
		t.Errorf("X_SOLVE count = %d, want 8", counts[bt.KXSolve])
	}
	if counts[bt.KInit] != 4 {
		t.Errorf("INITIALIZATION count = %d, want 4", counts[bt.KInit])
	}
	// The timeline should render one lane per rank.
	lines := strings.Count(ks.Timeline(60), "\n")
	if lines != 5 { // header + 4 lanes
		t.Errorf("timeline has %d lines, want 5", lines)
	}
}

// TestKernelErrorPropagatesWhenObserved: tracing sits beside the kernel
// dispatch, not around it, so a failing kernel still fails the run.
func TestKernelErrorPropagatesWhenObserved(t *testing.T) {
	cfg := bt.Config{Problem: npb.TinyProblem(8, 2), Procs: 1}
	factory, err := bt.Factory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ob := mpi.NewObserver(nil, obs.NewTrace(nil))
	err = npb.RunOnce(factory, nil, []string{"NO_SUCH_KERNEL"}, 1, nil, 1, nil, mpi.WithObserver(ob))
	if err == nil {
		t.Error("kernel error should propagate through an observed run")
	}
}
