package mpi

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubInjector is a minimal Injector for runtime-level tests; the real
// seed-driven implementation lives in internal/fault.
type stubInjector struct {
	op  func(rank int, op string) OpFault
	msg func(src, dest, tag, bytes int) MsgFault
}

func (s *stubInjector) Op(rank int, op string) OpFault {
	if s.op == nil {
		return OpFault{}
	}
	return s.op(rank, op)
}

func (s *stubInjector) Message(src, dest, tag, bytes int) MsgFault {
	if s.msg == nil {
		return MsgFault{}
	}
	return s.msg(src, dest, tag, bytes)
}

// TestWtimeDefaultsToWallClock: Wtime must advance with real time (a
// monotonic, non-fake reading).
func TestWtimeDefaultsToWallClock(t *testing.T) {
	err := Run(1, func(c *Comm) {
		a := c.Wtime()
		b := c.Wtime()
		if b.Before(a) {
			t.Errorf("wall Wtime went backwards: %v then %v", a, b)
		}
		if a.Year() < 2000 {
			t.Errorf("wall Wtime looks fake: %v", a)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMultiRankCrashReportsEveryRank pins the hardened failure path: when
// several ranks panic, the Launch error must carry every rank's id and a
// stack, not just the first panic.
func TestMultiRankCrashReportsEveryRank(t *testing.T) {
	var barrier atomic.Int64
	err := Run(5, func(c *Comm) {
		// Both dying ranks pass the gate before panicking so neither
		// panic can be swallowed by an early teardown of the other.
		if c.Rank() == 1 || c.Rank() == 3 {
			barrier.Add(1)
			for barrier.Load() < 2 {
				time.Sleep(time.Millisecond)
			}
			panic("scripted death")
		}
		buf := make([]float64, 1)
		c.Recv(1, 0, buf) // unwound by teardown
	})
	if err == nil {
		t.Fatal("want error")
	}
	msg := err.Error()
	for _, want := range []string{"rank 1", "rank 3", "scripted death", "goroutine"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error missing %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "torn down") {
		t.Errorf("teardown unwinds of surviving ranks must not be recorded as failures:\n%s", msg)
	}
}

// TestWatchdogDumpsWhoWaitsOnWhom drives a genuine deadlock (two ranks
// each receiving on a tag the other never sends) and asserts the watchdog
// report names both ranks' pending waits with src/tag/ctx detail.
func TestWatchdogDumpsWhoWaitsOnWhom(t *testing.T) {
	err := Run(2, func(c *Comm) {
		buf := make([]float64, 1)
		if c.Rank() == 0 {
			c.Recv(1, 7, buf)
		} else {
			c.Recv(0, 9, buf)
		}
	}, WithRecvTimeout(150*time.Millisecond))
	if err == nil {
		t.Fatal("want watchdog error")
	}
	msg := err.Error()
	for _, want := range []string{
		"watchdog", "timeout", "who-waits-on-whom",
		"rank 0: waiting on", "rank 1: waiting on",
		"tag=7", "tag=9",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("watchdog report missing %q:\n%s", want, msg)
		}
	}
}

// TestInjectedDelayPreservesSemantics: delayed and jittered messages must
// still arrive intact and in FIFO order per (source, tag).
func TestInjectedDelayPreservesSemantics(t *testing.T) {
	inj := &stubInjector{
		msg: func(src, dest, tag, bytes int) MsgFault {
			return MsgFault{Delay: 200 * time.Microsecond}
		},
		op: func(rank int, op string) OpFault {
			if rank == 1 {
				return OpFault{Delay: 50 * time.Microsecond} // straggler
			}
			return OpFault{}
		},
	}
	err := Run(2, func(c *Comm) {
		const n = 20
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 4, []float64{float64(i)})
			}
		} else {
			buf := make([]float64, 1)
			for i := 0; i < n; i++ {
				c.Recv(0, 4, buf)
				if buf[0] != float64(i) {
					t.Errorf("message %d arrived out of order: %v", i, buf[0])
					return
				}
			}
		}
	}, WithInjector(inj), WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

// TestInjectedCrashSurfacesAsRankFailure: a crash decision must surface as
// a structured error naming the rank, never a hang.
func TestInjectedCrashSurfacesAsRankFailure(t *testing.T) {
	var ops atomic.Int64
	inj := &stubInjector{
		op: func(rank int, op string) OpFault {
			if rank == 2 && ops.Add(1) == 5 {
				return OpFault{Crash: true}
			}
			return OpFault{}
		},
	}
	err := Run(4, func(c *Comm) {
		for i := 0; i < 50; i++ {
			c.Barrier()
		}
	}, WithInjector(inj), WithRecvTimeout(10*time.Second))
	if err == nil || !strings.Contains(err.Error(), "rank 2") || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("want injected rank-2 crash surfaced, got %v", err)
	}
}

// TestInjectedLossFailsWorldStructured: a message lost past its resend
// budget must fail the world with a structured lost-message error.
func TestInjectedLossFailsWorldStructured(t *testing.T) {
	inj := &stubInjector{
		msg: func(src, dest, tag, bytes int) MsgFault {
			if src == 0 && tag == 6 {
				return MsgFault{Lost: true}
			}
			return MsgFault{}
		},
	}
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 6, []float64{1})
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 6, buf)
		}
	}, WithInjector(inj), WithRecvTimeout(10*time.Second))
	if err == nil || !strings.Contains(err.Error(), "lost after resend budget") {
		t.Fatalf("want lost-message failure, got %v", err)
	}
}

// TestCollectivesListsEveryCollectiveOp: every collective, run under a
// recording injector, passes Op a name Collectives lists — the names a
// fault spec's collective op is checked against — and together they
// pass all of them: reduce and gather through Allreduce and Split.
func TestCollectivesListsEveryCollectiveOp(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]bool{}
	inj := &stubInjector{op: func(rank int, op string) OpFault {
		mu.Lock()
		seen[op] = true
		mu.Unlock()
		return OpFault{}
	}}
	const n = 3
	err := Run(n, func(c *Comm) {
		one, all := []float64{1}, make([]float64, n)
		c.Barrier()
		c.Bcast(0, one)
		c.Allreduce(OpSum, one, make([]float64, 1))
		c.Alltoall(all, make([]float64, n))
		c.Split(0, c.Rank())
	}, WithInjector(inj), WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	delete(seen, "send")
	delete(seen, "recv")
	for op := range seen {
		if !slices.Contains(Collectives, op) {
			t.Errorf("collective %q reaches the injector but is not in Collectives", op)
		}
	}
	for _, op := range Collectives {
		if !seen[op] {
			t.Errorf("Collectives lists %q, which no collective passed the injector", op)
		}
	}
}

// TestNilInjectorCostsNothingSemantically: the full collective suite must
// behave identically with a no-op injector attached (the zero-decision
// case) — a guard that the hooks are behaviorally transparent.
func TestNilDecisionInjectorTransparent(t *testing.T) {
	inj := &stubInjector{}
	err := Run(4, func(c *Comm) {
		in := []float64{float64(c.Rank() + 1)}
		out := make([]float64, 1)
		c.Allreduce(OpSum, in, out)
		if out[0] != 10 {
			t.Errorf("allreduce under no-op injector = %v, want 10", out[0])
		}
	}, WithInjector(inj), WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}
