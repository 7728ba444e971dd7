package mpi

import (
	"bytes"
	"testing"
)

// TestRawPoolRecycles pins the byte-payload pooling that keeps the
// SendBytes path allocation-free in steady state: a slice returned with
// putRaw must come back from getRaw (same backing array) when the
// requested length fits, and an oversized request must fall through to
// a fresh allocation rather than return a short buffer.
func TestRawPoolRecycles(t *testing.T) {
	w := &World{}
	b := w.getRaw(64)
	if len(b) != 64 {
		t.Fatalf("getRaw(64) returned len %d", len(b))
	}
	// Under the race detector sync.Pool drops a random quarter of Puts,
	// so one round trip proves nothing either way; a pool that recycles
	// at all succeeds within a few.
	var c []byte
	for try := 0; try < 32 && (c == nil || &c[0] != &b[0]); try++ {
		w.putRaw(b)
		c = w.getRaw(16)
		if len(c) != 16 {
			t.Fatalf("getRaw(16) returned len %d", len(c))
		}
	}
	if &c[0] != &b[0] {
		t.Error("getRaw after putRaw did not recycle the backing array")
	}
	w.putRaw(c)
	d := w.getRaw(128)
	if len(d) != 128 {
		t.Fatalf("getRaw(128) returned len %d", len(d))
	}
	if cap(c) > 0 && len(d) > 0 && &d[0] == &c[0] {
		t.Error("getRaw(128) returned a 64-byte pooled buffer")
	}
	// putRaw of an empty slice must not poison the pool.
	w.putRaw(nil)
	if e := w.getRaw(8); len(e) != 8 {
		t.Fatalf("getRaw(8) after putRaw(nil) returned len %d", len(e))
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
