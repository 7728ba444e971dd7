package mpi

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// These tests exist for the -race CI gate: they drive the paths the
// detector is most likely to catch regressions in — the panic/poison
// teardown that funnels into World.fail, with and without traffic in
// flight, and the poison/take-timeout interplay under the watchdog —
// with enough goroutine churn to give the scheduler real interleavings.
// They assert behavior too, but their main job is to make
// `go test -race ./internal/mpi` exercise the synchronization.

// TestRacePanicTeardown has one rank die while the others block in
// receives; the poison path must wake everyone and Launch must surface
// exactly the first recorded panic without racing the unwinding ranks.
func TestRacePanicTeardown(t *testing.T) {
	for round := 0; round < 20; round++ {
		err := Run(5, func(c *Comm) {
			if c.Rank() == 3 {
				panic("rank 3 dies")
			}
			buf := make([]float64, 1)
			// Blocks forever: rank 3 never sends; the teardown panic is
			// the only way out.
			defer func() { _ = recover() }()
			c.Recv(3, 1, buf)
		})
		if err == nil || !strings.Contains(err.Error(), "rank 3") {
			t.Fatalf("round %d: err = %v", round, err)
		}
	}
}

// TestRacePanicConcurrentWithTraffic lets ranks exchange ring traffic
// while one panics mid-stream: the poison lands while peers send and
// receive, and only the dying rank is recorded.
func TestRacePanicConcurrentWithTraffic(t *testing.T) {
	const n = 6
	err := Run(n, func(c *Comm) {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		for r := 0; ; r++ {
			if c.Rank() == 2 && r == 10 {
				panic("scripted death")
			}
			c.Send(next, 9, []float64{float64(r)})
			buf := make([]float64, 1)
			c.Recv(prev, 9, buf)
		}
	}, WithRecvTimeout(5*time.Second))
	if err == nil || !strings.Contains(err.Error(), "rank 2: panicked: scripted death") {
		t.Fatalf("err = %v", err)
	}
	if strings.Contains(err.Error(), "torn down") {
		t.Errorf("teardown unwinds of surviving ranks must not be recorded as failures:\n%v", err)
	}
}

// TestRacePoisonDuringTimedReceives stresses the poison/take-timeout
// interplay: many ranks block in watchdog-armed receives while one rank
// dies at a scheduler-chosen moment, so poison broadcasts race the
// watchdog's deadline checks and waitInfo registration/removal. Whatever
// the interleaving, the world must fail structurally — by the scripted
// death or by a watchdog stall — never hang, double-unlock or leak a
// waiting entry into a torn-down report.
func TestRacePoisonDuringTimedReceives(t *testing.T) {
	const n = 8
	for round := 0; round < 15; round++ {
		err := Run(n, func(c *Comm) {
			if c.Rank() == n-1 {
				// Die after a nondeterministic sliver of work so poison
				// lands while peers are at arbitrary points in take().
				for i := 0; i < c.Rank()%3; i++ {
					runtime.Gosched()
				}
				panic("scripted death")
			}
			buf := make([]float64, 1)
			for r := 0; ; r++ {
				// Tag 11 is never sent: every receive rides its timeout
				// until the poison broadcast (or the watchdog) wins.
				c.Recv(n-1, 11, buf)
			}
		}, WithRecvTimeout(50*time.Millisecond))
		if err == nil {
			t.Fatalf("round %d: want structured failure", round)
		}
		if !strings.Contains(err.Error(), "scripted death") && !strings.Contains(err.Error(), "watchdog") {
			t.Fatalf("round %d: unexpected failure shape: %v", round, err)
		}
	}
}

// TestRaceMailboxPoisonTakeTimeout drives the mailbox directly: concurrent
// timed takes, puts, and a poison fired mid-flight. Every take must resolve
// (match, stall-panic, or teardown-panic) — the test's completion plus the
// race detector is the assertion.
func TestRaceMailboxPoisonTakeTimeout(t *testing.T) {
	for round := 0; round < 30; round++ {
		w := NewWorld(2, WithRecvTimeout(20*time.Millisecond))
		b := w.boxes[0]
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(tag int) {
				defer wg.Done()
				defer func() { _ = recover() }() // stall or teardown panic
				b.take(1, tag, worldContext, 20*time.Millisecond)
			}(g % 3)
		}
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(tag int) {
				defer wg.Done()
				b.put(message{src: 1, tag: tag, ctx: worldContext})
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.Gosched()
			b.poison()
		}()
		wg.Wait()
	}
}
