package sp

import (
	"strings"
	"testing"

	"repro/internal/npb"
	"repro/internal/npb/npbtest"
)

// TestFieldsGolden pins every bit of the solution, right-hand side and
// forcing fields (ghosts included) and of the verification norms after a
// three-trip run, per rank, serial and on a 2×2 grid. The golden predates
// the tabulated exact() factors: see npbtest.CheckGolden before
// touching it.
func TestFieldsGolden(t *testing.T) {
	npbtest.SkipUnlessAMD64(t)
	pre, loop, post := Benchmark.Pre, Benchmark.Loop, Benchmark.Post
	// Each case runs as a factory's first world and again as its second,
	// which rebinds the state the first left, scratch arrays poisoned, and
	// must write the same golden.
	var built, recycled strings.Builder
	for _, tc := range []struct{ n, procs int }{{12, 1}, {12, 4}} {
		b, r := npbtest.FieldsGoldenLines(t, tinyFactory(t, tc.n, tc.procs), tc.n, tc.procs, pre, loop, post,
			func(ks npb.KernelSet) { ks.(*state).poisonScratch() },
			func(ks npb.KernelSet) (string, string) {
				st := ks.(*state)
				return npbtest.BitsDigest(st.u.Data, st.rhs.Data, st.forcing.Data),
					npbtest.BitsDigest(st.norms[:])
			})
		built.WriteString(b)
		recycled.WriteString(r)
	}
	npbtest.CheckGolden(t, "fields.golden", built.String())
	npbtest.CheckGolden(t, "fields.golden", recycled.String())
}
