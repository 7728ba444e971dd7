package bt

import (
	"testing"

	"repro/internal/npb"
	"repro/internal/npb/npbtest"
)

// worldBits digests what one world can hand the next through a state: the
// fields with their ghosts, and the norms.
func (st *state) worldBits() string {
	return npbtest.BitsDigest(st.u.Data, st.rhs.Data, st.forcing.Data, st.norms[:])
}

// poisonScratch overwrites every array Rebind leaves as the last world had
// it: each must be written before it is read.
func (st *state) poisonScratch() {
	for i := range st.chat {
		npbtest.Poison(st.chat[i][:])
	}
	npbtest.Poison(st.fwd, st.bwd, st.Scratch(), st.stencil.Scratch())
}

// tinyFactory is the factory of a tiny instance's worlds.
func tinyFactory(t *testing.T, n, procs int) *npb.Factory {
	t.Helper()
	f, err := Factory(tinyConfig(n, procs))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRecycledWorldMatchesFresh: serial, 2×2 and 3×3 ranks, even and uneven
// tiles (see npbtest.CheckRecycledMatchesFresh).
func TestRecycledWorldMatchesFresh(t *testing.T) {
	pre, loop, post := Benchmark.Pre, Benchmark.Loop, Benchmark.Post
	for _, tc := range []struct{ n, procs int }{{12, 1}, {12, 4}, {12, 9}, {10, 4}, {10, 9}} {
		npbtest.CheckRecycledMatchesFresh(t,
			func() *npb.Factory { return tinyFactory(t, tc.n, tc.procs) }, tc.procs, pre, loop, post,
			func(ks npb.KernelSet) { ks.(*state).poisonScratch() },
			func(ks npb.KernelSet) string { return ks.(*state).worldBits() })
	}
}
