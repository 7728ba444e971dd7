package mpi

import (
	"bytes"
	"runtime/debug"
	"testing"
)

// TestRawPoolRecycles pins the byte-payload pooling that keeps the
// SendBytes path allocation-free in steady state: a payload returned with
// putRaw must come back from getRaw (same backing array) when the
// requested length fits, and an oversized request must get a fresh
// allocation rather than a short buffer.
func TestRawPoolRecycles(t *testing.T) {
	w := &World{}
	b := w.getRaw(64)
	if len(b.raw) != 64 {
		t.Fatalf("getRaw(64) returned len %d", len(b.raw))
	}
	first := &b.raw[0]
	// Under the race detector sync.Pool drops a random quarter of Puts,
	// so one round trip proves nothing either way; a pool that recycles
	// at all succeeds within a few.
	var c *payload
	for try := 0; try < 32 && (c == nil || &c.raw[0] != first); try++ {
		w.putRaw(b)
		c = w.getRaw(16)
		if len(c.raw) != 16 {
			t.Fatalf("getRaw(16) returned len %d", len(c.raw))
		}
	}
	if &c.raw[0] != first {
		t.Error("getRaw after putRaw did not recycle the backing array")
	}
	w.putRaw(c)
	d := w.getRaw(128)
	if len(d.raw) != 128 {
		t.Fatalf("getRaw(128) returned len %d", len(d.raw))
	}
	if &d.raw[0] == first {
		t.Error("getRaw(128) returned a 64-byte pooled buffer")
	}
	// A holder whose slice was given away must not poison the pool.
	w.putRaw(&payload{})
	if e := w.getRaw(8); len(e.raw) != 8 {
		t.Fatalf("getRaw(8) after an empty putRaw returned len %d", len(e.raw))
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
// the pool, through the mailbox, copied out and back into the pool — and a
// Cartesian shift make no garbage. The pools used to hold slices, whose
// headers were boxed on every Put: one allocation per message received,
// 71 % of an LU study's objects. The world is unwatched, as a study's is;
// the watchdog's timer and wait record are per-receive allocations.
func TestMessagePathDoesNotAllocate(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts under -race")
	}
	const runs = 100
	err := Run(2, func(c *Comm) {
		peer := 1 - c.Rank()
		f64, raw := make([]float64, 85), make([]byte, 96)
		trips := []struct {
			name string
			ping func()
			pong func()
		}{
			{"Send+Recv",
				func() { c.Send(peer, 1, f64); c.Recv(peer, 2, f64) },
				func() { c.Recv(peer, 1, f64); c.Send(peer, 2, f64) }},
			{"SendBytes+RecvBytes",
				func() { c.SendBytes(peer, 3, raw); c.RecvBytes(peer, 4, raw) },
				func() { c.RecvBytes(peer, 3, raw); c.SendBytes(peer, 4, raw) }},
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
				t.Errorf("%s round trip allocates %v times, want 0", trip.name, n)
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			cart := NewCart(c, 2, 1)
			if n := testing.AllocsPerRun(runs, func() { cart.Shift(0, 1); cart.Shift(1, 1) }); n != 0 {
				t.Errorf("Cart.Shift allocates %v times, want 0", n)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendBytesPooledIntegrity exchanges many byte payloads of varying
// sizes so recycled buffers are constantly rewritten: every received
// message must still carry exactly its own payload (no bleed-through
// from a previous occupant of the same backing array), and the sender's
// buffer must stay aliased-free from the in-flight copy.
func TestSendBytesPooledIntegrity(t *testing.T) {
	run(t, 2, func(c *Comm) {
		const rounds = 50
		if c.Rank() == 0 {
			for i := 0; i < rounds; i++ {
				n := 1 + (i*7)%96
				msg := bytes.Repeat([]byte{byte(i)}, n)
				c.SendBytes(1, 5, msg)
				msg[0] = 0xFF // must not affect the in-flight copy
			}
		} else {
			buf := make([]byte, 128)
			for i := 0; i < rounds; i++ {
				n := 1 + (i*7)%96
				st := c.RecvBytes(0, 5, buf)
				if st.Count != n {
					t.Errorf("round %d: Count = %d, want %d", i, st.Count, n)
				}
				for j := 0; j < st.Count; j++ {
					if buf[j] != byte(i) {
						t.Errorf("round %d: byte %d = %#x, want %#x", i, j, buf[j], byte(i))
						break
					}
				}
			}
		}
	})
}
