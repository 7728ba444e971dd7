package fault

import (
	"flag"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseFullGrammar(t *testing.T) {
	spec, err := Parse("delay:p=0.2,mean=200us,jitter=0.3; drop:p=0.05,resend=4,backoff=1ms; straggler:ranks=1+3,delay=50us; collective:op=allreduce,p=0.5,delay=2ms; crash:rank=2,at=40")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Delay == nil || spec.Delay.P != 0.2 || spec.Delay.Mean != 200*time.Microsecond || spec.Delay.Jitter != 0.3 {
		t.Errorf("delay = %+v", spec.Delay)
	}
	if spec.Drop == nil || spec.Drop.P != 0.05 || spec.Drop.Resend != 4 || spec.Drop.Backoff != time.Millisecond {
		t.Errorf("drop = %+v", spec.Drop)
	}
	if spec.Straggler == nil || len(spec.Straggler.Ranks) != 2 || spec.Straggler.Ranks[0] != 1 || spec.Straggler.Ranks[1] != 3 {
		t.Errorf("straggler = %+v", spec.Straggler)
	}
	if spec.Collective == nil || spec.Collective.Op != "allreduce" || spec.Collective.P != 0.5 || spec.Collective.Delay != 2*time.Millisecond {
		t.Errorf("collective = %+v", spec.Collective)
	}
	if spec.Crash == nil || spec.Crash.Rank != 2 || spec.Crash.At != 40 {
		t.Errorf("crash = %+v", spec.Crash)
	}
}

func TestParseDefaults(t *testing.T) {
	spec, err := Parse("delay:mean=1ms;drop:p=0.1;collective:delay=1ms;crash:rank=0")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Delay.P != 1 || spec.Delay.Jitter != 0.5 {
		t.Errorf("delay defaults = %+v", spec.Delay)
	}
	if spec.Drop.Resend != 3 || spec.Drop.Backoff != 200*time.Microsecond {
		t.Errorf("drop defaults = %+v", spec.Drop)
	}
	if spec.Collective.Op != "*" || spec.Collective.P != 1 {
		t.Errorf("collective defaults = %+v", spec.Collective)
	}
	if spec.Crash.At != 0 {
		t.Errorf("crash defaults = %+v", spec.Crash)
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		"nonsense",
		"warp:speed=9",
		"delay:p=1.5,mean=1ms",
		"delay:p=0.5",     // missing mean
		"delay:mean=-3ms", // negative duration
		"drop:resend=2",   // missing p
		"drop:p=0.1,resend=-1",
		"straggler:delay=1ms", // missing ranks
		"straggler:ranks=0+-2,delay=1ms",
		"collective:op=bcast",     // missing delay
		"crash:at=5",              // missing rank
		"delay:mean=1ms,mean=2ms", // duplicate key
		"delay:mean=1ms,bogus=3",  // unknown key
		"delay:",                  // no parameters
		"delay:p=0.1,mean=1ms;delay:p=0.9,mean=5ms", // repeated class
		"diskerr:count=2;diskerr:p=1",               // repeated serving class
		";",                                         // text but no clause
		"collective:op=allreduc,delay=1ms",          // not a collective
		"collective:op=scan,delay=1ms",              // a collective the runtime no longer has
		"delay:p=NaN,mean=1ms",                      // probability not a number
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestParseEmptyIsNoFaults(t *testing.T) {
	spec, err := Parse("  ")
	if err != nil || !spec.Empty() {
		t.Fatalf("spec=%+v err=%v", spec, err)
	}
}

func TestSpecStringRoundTrips(t *testing.T) {
	in := "delay:p=0.2,mean=200us,jitter=0.3;drop:p=0.05,resend=4,backoff=1ms;straggler:ranks=1+3,delay=50us;collective:op=allreduce,p=0.5,delay=2ms;crash:rank=2,at=40"
	spec, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Parse(spec.String())
	if err != nil {
		t.Fatalf("canonical form %q does not re-parse: %v", spec.String(), err)
	}
	if re.String() != spec.String() {
		t.Errorf("round trip drifted:\n  %s\n  %s", spec.String(), re.String())
	}
}

// replay drives an injector through a fixed per-rank operation sequence,
// interleaved across goroutines to mimic scheduler nondeterminism.
func replay(inj *Injector, ranks, ops, msgs int) {
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				inj.Op(rank, []string{"send", "recv", "allreduce", "barrier"}[i%4])
			}
			for i := 0; i < msgs; i++ {
				inj.Message(rank, (rank+1)%ranks, i%7, 64)
			}
		}(r)
	}
	wg.Wait()
}

// TestScheduleDeterministicAcrossInterleavings is the reproducibility
// pin: the same seed and the same per-rank operation sequences must yield
// a byte-for-byte identical schedule no matter how goroutines interleave.
func TestScheduleDeterministicAcrossInterleavings(t *testing.T) {
	spec, err := Parse("delay:p=0.3,mean=100us;drop:p=0.2,resend=2,backoff=10us;straggler:ranks=1,delay=5us;collective:p=0.4,delay=20us;crash:rank=3,at=25")
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for trial := 0; trial < 5; trial++ {
		inj := New(spec, 42)
		replay(inj, 4, 40, 40)
		text := inj.ScheduleText()
		if trial == 0 {
			first = text
			if inj.Tally() == (Tally{}) {
				t.Fatal("spec injected nothing; test is vacuous")
			}
			continue
		}
		if text != first {
			t.Fatalf("trial %d schedule differs:\n--- first ---\n%s\n--- trial ---\n%s", trial, first, text)
		}
	}
}

// TestWorldBoundariesIsolateAbortedWorlds pins the contract the
// end-to-end chaos reproducibility test relies on: a world killed by a
// fault tears its surviving ranks down at scheduler-dependent points, so
// the injector must (a) key decisions off within-world indexes that reset
// at each WorldStart — the next world's schedule cannot depend on where
// the previous one stopped — and (b) trim the doomed world's recorded
// schedule to the killing rank's own events.
func TestWorldBoundariesIsolateAbortedWorlds(t *testing.T) {
	spec, err := Parse("delay:p=0.5,mean=50us;crash:rank=1,at=5")
	if err != nil {
		t.Fatal(err)
	}
	run := func(survivorProgress int) string {
		inj := New(spec, 9)
		inj.WorldStart()
		// Rank 1 reaches its crash deterministically...
		for i := 0; i <= 5; i++ {
			inj.Op(1, "send")
		}
		// ...while the surviving ranks get a scheduler-dependent number of
		// messages in before the teardown unwinds them.
		for i := 0; i < survivorProgress; i++ {
			inj.Message(0, 2, 7, 64)
			inj.Message(2, 0, 7, 64)
		}
		// The retry world completes normally.
		inj.WorldStart()
		for r := 0; r < 3; r++ {
			for i := 0; i < 20; i++ {
				inj.Message(r, (r+1)%3, 7, 64)
			}
		}
		return inj.ScheduleText()
	}
	first := run(3)
	if !strings.Contains(first, "crash") {
		t.Fatal("crash never fired; test is vacuous")
	}
	if !strings.Contains(first, "w2") {
		t.Fatal("retry world injected nothing; test is vacuous")
	}
	for _, progress := range []int{0, 7, 19} {
		if got := run(progress); got != first {
			t.Fatalf("survivor progress %d changed the schedule:\n--- want ---\n%s--- got ---\n%s", progress, first, got)
		}
	}
}

// TestScheduleVariesWithSeed guards against a degenerate hash: different
// seeds must produce different schedules.
func TestScheduleVariesWithSeed(t *testing.T) {
	spec, _ := Parse("delay:p=0.5,mean=100us")
	a, b := New(spec, 1), New(spec, 2)
	replay(a, 2, 0, 200)
	replay(b, 2, 0, 200)
	if a.Digest() == b.Digest() {
		t.Fatalf("seeds 1 and 2 produced identical digests %s", a.Digest())
	}
}

func TestCrashFiresExactlyOnce(t *testing.T) {
	spec, _ := Parse("crash:rank=1,at=10")
	inj := New(spec, 7)
	crashes := 0
	for i := 0; i < 100; i++ {
		if inj.Op(1, "send").Crash {
			crashes++
		}
	}
	if crashes != 1 {
		t.Fatalf("crash fired %d times, want exactly 1", crashes)
	}
	// Counters persist: a "retry" (more ops on the same injector) must not
	// re-fire the crash.
	for i := 0; i < 100; i++ {
		if inj.Op(1, "send").Crash {
			t.Fatal("crash re-fired after retry")
		}
	}
	if got := inj.Tally().Crashes; got != 1 {
		t.Fatalf("tally.Crashes = %d", got)
	}
}

func TestCrashIgnoresOtherRanks(t *testing.T) {
	spec, _ := Parse("crash:rank=1,at=0")
	inj := New(spec, 7)
	for i := 0; i < 50; i++ {
		if inj.Op(0, "send").Crash || inj.Op(2, "recv").Crash {
			t.Fatal("crash fired on wrong rank")
		}
	}
}

func TestStragglerDelaysOnlyListedRanks(t *testing.T) {
	spec, _ := Parse("straggler:ranks=0+2,delay=5us")
	inj := New(spec, 1)
	for i := 0; i < 20; i++ {
		if d := inj.Op(0, "send").Delay; d != 5*time.Microsecond {
			t.Fatalf("rank 0 delay = %v", d)
		}
		if d := inj.Op(1, "send").Delay; d != 0 {
			t.Fatalf("rank 1 delay = %v", d)
		}
		if d := inj.Op(2, "barrier").Delay; d != 5*time.Microsecond {
			t.Fatalf("rank 2 delay = %v", d)
		}
	}
}

func TestCollectiveSlowdownSkipsPointToPoint(t *testing.T) {
	spec, _ := Parse("collective:op=*,p=1,delay=9us")
	inj := New(spec, 1)
	for i := 0; i < 20; i++ {
		if d := inj.Op(0, "send").Delay; d != 0 {
			t.Fatalf("send delayed %v by collective spec", d)
		}
		if d := inj.Op(0, "recv").Delay; d != 0 {
			t.Fatalf("recv delayed %v by collective spec", d)
		}
		if d := inj.Op(0, "allreduce").Delay; d != 9*time.Microsecond {
			t.Fatalf("allreduce delay = %v", d)
		}
	}
}

func TestCollectiveSlowdownFiltersByOp(t *testing.T) {
	spec, _ := Parse("collective:op=bcast,p=1,delay=9us")
	inj := New(spec, 1)
	if d := inj.Op(0, "allreduce").Delay; d != 0 {
		t.Fatalf("allreduce delayed %v by bcast-only spec", d)
	}
	if d := inj.Op(0, "bcast").Delay; d != 9*time.Microsecond {
		t.Fatalf("bcast delay = %v", d)
	}
}

func TestDelayJitterStaysInBounds(t *testing.T) {
	spec, _ := Parse("delay:p=1,mean=100us,jitter=0.5")
	inj := New(spec, 3)
	lo, hi := 50*time.Microsecond, 150*time.Microsecond
	for i := 0; i < 500; i++ {
		mf := inj.Message(0, 1, 0, 8)
		if mf.Delay < lo || mf.Delay > hi {
			t.Fatalf("message %d delay %v outside [%v, %v]", i, mf.Delay, lo, hi)
		}
	}
}

func TestDropResolvesResendProtocol(t *testing.T) {
	spec, _ := Parse("drop:p=0.5,resend=3,backoff=10us")
	inj := New(spec, 9)
	var recovered, lost, clean int
	for i := 0; i < 2000; i++ {
		mf := inj.Message(0, 1, 0, 8)
		switch {
		case mf.Lost:
			lost++
			if mf.Resends != 3 {
				t.Fatalf("lost message reports %d resends, want full budget 3", mf.Resends)
			}
		case mf.Resends > 0:
			recovered++
			// Backoff is exponential: resend i paid 10us·2^(i-1) ... sum.
			var want time.Duration
			for a := 0; a < mf.Resends; a++ {
				want += 10 * time.Microsecond << a
			}
			if mf.Delay != want {
				t.Fatalf("resends=%d delay=%v want %v", mf.Resends, mf.Delay, want)
			}
		default:
			clean++
		}
	}
	// p=0.5, 4 attempts: ~6.25% lost, ~50% clean; sanity-check the mix.
	if lost == 0 || recovered == 0 || clean == 0 {
		t.Fatalf("degenerate mix: clean=%d recovered=%d lost=%d", clean, recovered, lost)
	}
}

func TestEventsSortedAndCapped(t *testing.T) {
	spec, _ := Parse("delay:p=1,mean=1us")
	inj := New(spec, 1)
	replay(inj, 4, 0, 4000) // 16000 events > cap
	evs := inj.Events()
	if len(evs) > maxRecordedEvents {
		t.Fatalf("recorded %d events, cap %d", len(evs), maxRecordedEvents)
	}
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if a.Rank > b.Rank || (a.Rank == b.Rank && a.Kind == b.Kind && a.Index > b.Index) {
			t.Fatalf("events out of order at %d: %+v then %+v", i, a, b)
		}
	}
	if got := inj.Tally().Delays; got != 16000 {
		t.Fatalf("tally covers %d delays, want all 16000", got)
	}
	if !strings.Contains(inj.ScheduleText(), "first 10000 shown") {
		t.Error("ScheduleText does not note the event cap")
	}
}

func TestFlagsRegisterAndBuild(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-fault-spec", "delay:mean=1ms", "-fault-seed", "99"}); err != nil {
		t.Fatal(err)
	}
	inj, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if inj == nil || inj.seed != 99 {
		t.Fatalf("inj=%v", inj)
	}
	if f.WatchdogTimeout() != DefaultWatchdog {
		t.Errorf("watchdog = %v, want default %v when spec set", f.WatchdogTimeout(), DefaultWatchdog)
	}
}

func TestFlagsDisabled(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if inj, err := f.Build(); inj != nil || err != nil {
		t.Fatalf("inj=%v err=%v, want nil/nil when disabled", inj, err)
	}
	if f.WatchdogTimeout() != 0 {
		t.Errorf("watchdog armed without a spec: %v", f.WatchdogTimeout())
	}
}

func TestFlagsRejectBadSpec(t *testing.T) {
	for spec, want := range map[string]string{
		"warp:speed=9":                   `"warp"`,
		";":                              "no class clause",
		"delay:mean=1ms;diskerr:count=2": `class "diskerr" is for the -fault-spec of kcserved`,
	} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		f := Register(fs)
		if err := fs.Parse([]string{"-fault-spec", spec}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Build(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Build(%q) = %v, want an error containing %s", spec, err, want)
		}
	}
}
