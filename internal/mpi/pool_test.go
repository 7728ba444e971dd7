package mpi

import (
	"runtime/debug"
	"testing"
)

// TestBufPoolRecycles pins the payload pooling that keeps the message
// path allocation-free in steady state: a payload returned with putBuf
// must come back from getBuf (same backing array) when the requested
// length fits, and a request beyond a pooled array's capacity must get a
// fresh allocation rather than a short buffer. The pool belongs to the
// process, so the first array may be one an earlier test left, of any
// capacity of at least 64.
func TestBufPoolRecycles(t *testing.T) {
	w := &World{}
	b := w.getBuf(64)
	if len(b.f64) != 64 {
		t.Fatalf("getBuf(64) returned len %d", len(b.f64))
	}
	first, firstCap := &b.f64[0], cap(b.f64)
	// Under the race detector sync.Pool drops a random quarter of Puts,
	// so one round trip proves nothing either way; a pool that recycles
	// at all succeeds within a few.
	var c *payload
	for try := 0; try < 32 && (c == nil || &c.f64[0] != first); try++ {
		w.putBuf(b)
		c = w.getBuf(16)
		if len(c.f64) != 16 {
			t.Fatalf("getBuf(16) returned len %d", len(c.f64))
		}
	}
	if &c.f64[0] != first {
		t.Error("getBuf after putBuf did not recycle the backing array")
	}
	w.putBuf(c)
	d := w.getBuf(128)
	if len(d.f64) != 128 || cap(d.f64) < 128 {
		t.Fatalf("getBuf(128) returned len %d cap %d", len(d.f64), cap(d.f64))
	}
	if &d.f64[0] == first && firstCap < 128 {
		t.Errorf("getBuf(128) reused a pooled array of capacity %d", firstCap)
	}
	// An empty holder must not poison the pool.
	w.putBuf(&payload{})
	if e := w.getBuf(8); len(e.f64) != 8 {
		t.Fatalf("getBuf(8) after an empty putBuf returned len %d", len(e.f64))
	}
}

// raceEnabled reports whether the test binary was built with -race, under
// which sync.Pool drops a quarter of its Puts and the pooled message path
// cannot be allocation-free.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	if bi == nil {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestMessagePathDoesNotAllocate: a warmed round trip — the payload out of
// the pool, through the mailbox, copied out and back into the pool — a
// Barrier, which bounds every timed block, an Allreduce, whose reduce
// takes its scratch from the pool, and a Cartesian shift make no garbage. The pools used to hold slices, whose
// headers were boxed on every Put: one allocation per message received,
// 71 % of an LU study's objects. The worlds are unwatched, as a study's
// is; the watchdog's timer and wait record are per-receive allocations.
// The same holds on a metrics-only observed world inside a kernel: a
// collective's span used to be a closure (two allocations a Barrier), and
// every message looked its kernel's handles up.
func TestMessagePathDoesNotAllocate(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race")
	}
	const runs = 100
	worlds := []struct {
		name string
		opts []Option
	}{
		{"unobserved", nil},
		{"observed", []Option{WithObserver(NewObserver(nil, nil))}},
	}
	for _, w := range worlds {
		err := Run(2, func(c *Comm) {
			c.SetPhase("K")
			peer := 1 - c.Rank()
			f64, in, out := make([]float64, 85), make([]float64, 5), make([]float64, 5)
			trips := []struct {
				name string
				ping func()
				pong func()
			}{
				{"Send+Recv",
					func() { c.Send(peer, 1, f64); c.Recv(peer, 2, f64) },
					func() { c.Recv(peer, 1, f64); c.Send(peer, 2, f64) }},
				{"Barrier", c.Barrier, c.Barrier},
				{"Allreduce",
					func() { c.Allreduce(OpSum, in, out) },
					func() { c.Allreduce(OpSum, in, out) }},
			}
			for _, trip := range trips {
				if c.Rank() == 1 {
					// Warm-ups, AllocsPerRun's own first call, the counted runs.
					for i := 0; i < 8+1+runs; i++ {
						trip.pong()
					}
					continue
				}
				for i := 0; i < 8; i++ {
					trip.ping() // warm: size the mailboxes, fill the pools
				}
				if n := testing.AllocsPerRun(runs, trip.ping); n != 0 {
					t.Errorf("%s world: %s round trip allocates %v times, want 0", w.name, trip.name, n)
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				cart := NewCart(c, 2, 1)
				if n := testing.AllocsPerRun(runs, func() { cart.Shift(0, 1); cart.Shift(1, 1) }); n != 0 {
					t.Errorf("%s world: Cart.Shift allocates %v times, want 0", w.name, n)
				}
			}
		}, w.opts...)
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSendPooledIntegrity exchanges many payloads of varying sizes so
// recycled buffers are constantly rewritten: every received message must
// still carry exactly its own payload (no bleed-through from a previous,
// longer occupant of the same backing array), and the sender's buffer
// must stay aliased-free from the in-flight copy.
func TestSendPooledIntegrity(t *testing.T) {
	run(t, 2, func(c *Comm) {
		const rounds = 50
		if c.Rank() == 0 {
			msg := make([]float64, 96)
			for i := 0; i < rounds; i++ {
				n := 1 + (i*7)%96
				for j := range msg[:n] {
					msg[j] = float64(i)
				}
				c.Send(1, 5, msg[:n])
				msg[0] = -1 // must not affect the in-flight copy
			}
		} else {
			buf := make([]float64, 128)
			for i := 0; i < rounds; i++ {
				n := 1 + (i*7)%96
				for j := range buf {
					buf[j] = -2
				}
				c.Recv(0, 5, buf)
				for j, v := range buf {
					want := float64(i)
					if j >= n {
						want = -2 // past the message: untouched
					}
					if v != want {
						t.Errorf("round %d: element %d = %v, want %v", i, j, v, want)
						break
					}
				}
			}
		}
	})
}
