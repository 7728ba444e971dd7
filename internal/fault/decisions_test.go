package fault

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// testdata/decisions.golden was written by the two clause parsers and the
// six-method ServeInjector the one grammar replaced, before the rewrite;
// like plan's canonical_edge.golden it is the proof that decisions and
// canonical spec strings did not move. Never regenerate it to make this
// test pass.

// goldenServeStreams are the specs whose serving decision streams are
// pinned: every Serving class at p=0.5, then with count= variants.
var goldenServeStreams = []string{
	"diskslow:p=0.5,mean=2ms;diskerr:p=0.5;measure:p=0.5;handler:delay=1ms,p=0.5;peerdelay:p=0.5,mean=3ms,jitter=0.25;peererr:p=0.5",
	"diskslow:p=0.5,mean=2ms,jitter=0.9;diskerr:count=5;measure:count=3;handler:delay=1ms,p=0.5;peerdelay:p=0.5,mean=3ms;peererr:count=7",
}

// goldenSpecs are the spec literals of the repository's tests and docs,
// World classes then Serving ones.
var goldenSpecs = []string{
	"delay:p=0.2,mean=200us,jitter=0.5;crash:rank=1,at=50",
	"delay:p=0.2,mean=200us;crash:rank=1,at=50",
	"delay:p=0.2,mean=200us;straggler:ranks=1,delay=50us",
	"delay:p=0.2,mean=100us,jitter=0.5",
	"delay:p=0.2,mean=200us",
	"crash:rank=2,at=40",
	"delay:p=0.4,mean=100us,jitter=0.9",
	"drop:p=0.6,resend=2,backoff=20us",
	"drop:p=0.97,resend=1,backoff=10us",
	"straggler:ranks=1,delay=200us;collective:op=*,p=0.5,delay=100us",
	"crash:rank=1,at=30",
	"delay:p=0.3,mean=50us;drop:p=0.5,resend=3,backoff=10us;straggler:ranks=0,delay=100us;collective:op=barrier,p=0.3,delay=50us;crash:rank=1,at=200",
	"delay:p=0.25,mean=50us,jitter=0.5",
	"delay:p=0.5,mean=50us,jitter=0.5;crash:rank=1,at=40",
	"crash:rank=1,at=400",
	"delay:p=0.2,mean=200us,jitter=0.3; drop:p=0.05,resend=4,backoff=1ms; straggler:ranks=1+3,delay=50us; collective:op=allreduce,p=0.5,delay=2ms; crash:rank=2,at=40",
	"delay:mean=1ms;drop:p=0.1;collective:delay=1ms;crash:rank=0",
	"delay:p=0.2,mean=200us,jitter=0.3;drop:p=0.05,resend=4,backoff=1ms;straggler:ranks=1+3,delay=50us;collective:op=allreduce,p=0.5,delay=2ms;crash:rank=2,at=40",
	"delay:p=0.3,mean=100us;drop:p=0.2,resend=2,backoff=10us;straggler:ranks=1,delay=5us;collective:p=0.4,delay=20us;crash:rank=3,at=25",
	"delay:p=0.5,mean=50us;crash:rank=1,at=5",
	"delay:p=0.5,mean=100us",
	"crash:rank=1,at=10",
	"crash:rank=1,at=0",
	"straggler:ranks=0+2,delay=5us",
	"collective:op=*,p=1,delay=9us",
	"collective:op=bcast,p=1,delay=9us",
	"delay:p=1,mean=100us,jitter=0.5",
	"drop:p=0.5,resend=3,backoff=10us",
	"delay:p=1,mean=1us",
	"delay:mean=1ms",
	"delay:p=0.2,mean=1ms,jitter=0.5",
	"measure:count=2;diskslow:p=0.3,mean=2ms",
	"measure:count=2;diskslow:p=0.3,mean=2ms;handler:delay=4ms,p=0.25",
	"handler:delay=300ms",
	"handler:delay=3s",
	"peererr:count=2",
	"measure:count=2",
	"diskslow:p=0.5,mean=2ms;diskerr:count=8;measure:p=0.3;handler:delay=5ms,p=0.1",
	"diskerr:count=8;measure:p=0.3;handler:delay=5ms,p=0.1",
	"diskslow:p=0.5,mean=2ms;diskerr:p=0.5;measure:p=0.5;handler:delay=1ms,p=0.5",
	"measure:count=3;diskerr:count=2",
	"diskerr:p=0.3",
	"diskslow:p=1,mean=10ms,jitter=0.5",
}

// TestDecisionsGolden renders, for seeds 1 and 7, the first 256 outputs
// of each serving decision method and the fired counters; two MPI-world
// schedules; and the canonical String of every spec literal — and
// compares the lot with testdata/decisions.golden byte for byte.
func TestDecisionsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/decisions.golden")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(want), "\n") {
		if !strings.HasPrefix(line, "#") {
			break
		}
		b.WriteString(line)
	}
	for _, text := range goldenServeStreams {
		spec, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 7} {
			reg := obs.NewRegistry()
			i := NewServeInjector(spec, seed, reg)
			fmt.Fprintf(&b, "serve seed=%d %s\n", seed, text)
			for _, m := range []struct {
				name  string
				delay func() time.Duration
				fail  func() error
			}{
				{name: "DiskDelay", delay: i.DiskDelay},
				{name: "DiskErr", fail: i.DiskErr},
				{name: "MeasureErr", fail: i.MeasureErr},
				{name: "HandlerDelay", delay: i.HandlerDelay},
				{name: "PeerDelay", delay: i.PeerDelay},
				{name: "PeerErr", fail: i.PeerErr},
			} {
				// Each class draws from its own counter, so one method's
				// 256 calls in a row equal 256 interleaved with the rest.
				var out []string
				var errs []string
				for range 256 {
					if m.delay != nil {
						out = append(out, strconv.FormatInt(int64(m.delay()), 10))
						continue
					}
					err := m.fail()
					if err == nil {
						out = append(out, ".")
						continue
					}
					out = append(out, "x")
					if len(errs) == 0 {
						errs = append(errs, err.Error())
					}
				}
				if m.delay != nil {
					fmt.Fprintf(&b, "  %s: %s\n", m.name, strings.Join(out, " "))
				} else {
					fmt.Fprintf(&b, "  %s %q: %s\n", m.name, errs, strings.Join(out, ""))
				}
			}
			for _, c := range classes {
				if c.hooks == Serving {
					fmt.Fprintf(&b, "  fault.serve.%s=%d\n", c.name, reg.Counter("fault.serve."+c.name).Value())
				}
			}
		}
	}
	spec, err := Parse("delay:p=0.3,mean=100us;drop:p=0.2,resend=2,backoff=10us;straggler:ranks=1,delay=5us;collective:p=0.4,delay=20us;crash:rank=3,at=25")
	if err != nil {
		t.Fatal(err)
	}
	inj := New(spec, 42)
	replay(inj, 4, 40, 40)
	b.WriteString("schedule replay(4, 40, 40) seed=42\n")
	b.WriteString(inj.ScheduleText())
	inj = New(spec, 42)
	replaySerial(inj, 4, 200, 100)
	b.WriteString("schedule replaySerial(4, 200, 100) seed=42\n")
	b.WriteString(inj.ScheduleText())
	for _, text := range goldenSpecs {
		s, err := Parse(text)
		if err != nil {
			t.Fatal(text, err)
		}
		fmt.Fprintf(&b, "spec %s\n  => %s\n", text, s)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for n := 0; n < len(gl) && n < len(wl); n++ {
			if gl[n] != wl[n] {
				t.Fatalf("line %d differs from testdata/decisions.golden:\n got: %.300s\nwant: %.300s", n+1, gl[n], wl[n])
			}
		}
		t.Fatalf("%d lines, testdata/decisions.golden has %d", len(gl), len(wl))
	}
}

// replaySerial drives the injector through replay's per-rank operation
// sequences one rank after another. Under a spec with more than one way
// to kill a world, which kill comes first decides the schedule, so a
// concurrent replay long enough to lose a message is not reproducible.
func replaySerial(inj *Injector, ranks, ops, msgs int) {
	for rank := 0; rank < ranks; rank++ {
		for i := 0; i < ops; i++ {
			inj.Op(rank, []string{"send", "recv", "allreduce", "barrier"}[i%4])
		}
		for i := 0; i < msgs; i++ {
			inj.Message(rank, (rank+1)%ranks, i%7, 64)
		}
	}
}
