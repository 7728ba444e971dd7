package mpi

import (
	"strings"
	"testing"
	"time"
)

// run is a test helper that launches a world with a deadlock timeout so a
// broken exchange fails the test instead of hanging it.
func run(t *testing.T, n int, fn func(*Comm)) {
	t.Helper()
	if err := Run(n, fn, WithRecvTimeout(10*time.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvBasic(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			buf := make([]float64, 3)
			c.Recv(0, 7, buf)
			if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
				t.Errorf("bad payload: %v", buf)
			}
		}
	})
}

func TestSendCopiesBuffer(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // must not affect the in-flight message
			c.Barrier()
		} else {
			c.Barrier()
			got := make([]float64, 1)
			c.Recv(0, 0, got)
			if got[0] != 42 {
				t.Errorf("message aliased sender buffer: got %v", got[0])
			}
		}
	})
}

func TestRecvFIFOPerSourceTag(t *testing.T) {
	run(t, 2, func(c *Comm) {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, []float64{float64(i)})
			}
		} else {
			buf := make([]float64, 1)
			for i := 0; i < n; i++ {
				c.Recv(0, 3, buf)
				if buf[0] != float64(i) {
					t.Errorf("message %d arrived out of order: got %v", i, buf[0])
					return
				}
			}
		}
	})
}

func TestRecvMatchesByTag(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
		} else {
			buf := make([]float64, 1)
			// Receive tag 2 first even though tag 1 arrived first.
			c.Recv(0, 2, buf)
			if buf[0] != 2 {
				t.Errorf("tag-2 recv got %v", buf[0])
			}
			c.Recv(0, 1, buf)
			if buf[0] != 1 {
				t.Errorf("tag-1 recv got %v", buf[0])
			}
		}
	})
}

func TestUserTagValidation(t *testing.T) {
	for name, op := range map[string]func(*Comm){
		"Send": func(c *Comm) { c.Send(0, -5, []float64{1}) },
		"Recv": func(c *Comm) { c.Recv(0, -1, make([]float64, 1)) }, // no wildcard tag
	} {
		err := Run(1, op, WithRecvTimeout(5*time.Second))
		if err == nil || !strings.Contains(err.Error(), "non-negative") {
			t.Errorf("%s: negative user tag should panic, got %v", name, err)
		}
	}
}

func TestRecvTimeoutDetectsDeadlock(t *testing.T) {
	start := time.Now()
	err := Run(1, func(c *Comm) {
		buf := make([]float64, 1)
		c.Recv(0, 0, buf) // nobody sends: must time out
	}, WithRecvTimeout(100*time.Millisecond))
	if err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("want timeout error, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout took far too long")
	}
}

func TestPanicInOneRankUnwindsWorld(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			panic("rank 0 died")
		}
		buf := make([]float64, 1)
		c.Recv(0, 0, buf) // would wait forever; poison must wake it
	}, WithRecvTimeout(30*time.Second))
	if err == nil || !strings.Contains(err.Error(), "rank 0") {
		t.Errorf("want rank-0 panic surfaced, got %v", err)
	}
}

func TestWorldRankAndSize(t *testing.T) {
	run(t, 4, func(c *Comm) {
		if c.Size() != 4 {
			t.Errorf("Size = %d", c.Size())
		}
		if c.WorldRank() != c.Rank() {
			t.Errorf("world comm ranks should match: %d vs %d", c.WorldRank(), c.Rank())
		}
	})
}

func TestInvalidWorldSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWorld(0) should panic")
		}
	}()
	NewWorld(0)
}

func TestManyRanksStress(t *testing.T) {
	// 64 ranks exchanging in a ring several times; exercises scheduling
	// far beyond the host core count.
	const n = 64
	run(t, n, func(c *Comm) {
		buf := make([]float64, 1)
		for iter := 0; iter < 10; iter++ {
			right := (c.Rank() + 1) % n
			left := (c.Rank() - 1 + n) % n
			c.Send(right, iter, []float64{float64(c.Rank() + iter)})
			c.Recv(left, iter, buf)
			if buf[0] != float64(left+iter) {
				t.Errorf("iter %d rank %d: got %v", iter, c.Rank(), buf[0])
				return
			}
		}
	})
}
