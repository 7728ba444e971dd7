package lu

import (
	"strings"
	"testing"

	"repro/internal/npb"
	"repro/internal/npb/npbtest"
)

// TestFieldsGolden pins every bit of the solution, residual and forcing
// fields (ghosts included) and of the residual, error and solution norms
// and the surface integral after a three-trip run, per rank, serial and on
// 2×2 pencils. The golden predates the tabulated exact() factors: see
// npbtest.CheckFieldsGolden before touching it.
func TestFieldsGolden(t *testing.T) {
	npbtest.SkipUnlessAMD64(t)
	pre, loop, post := KernelNames()
	// Each case runs as a factory's first world and again as its second,
	// which rebinds the state the first left, scratch arrays poisoned, and
	// must write the same golden.
	var built, recycled strings.Builder
	for _, tc := range []struct{ n, procs int }{{12, 1}, {12, 4}} {
		b, r := npbtest.FieldsGoldenLines(t, tinyFactory(t, tc.n, tc.procs), tc.n, tc.procs, pre, loop, post,
			func(ks npb.KernelSet) { ks.(*state).poisonScratch() },
			func(ks npb.KernelSet) (string, string) {
				st := ks.(*state)
				return npbtest.BitsDigest(st.u.Data, st.rsd.Data, st.frct.Data),
					npbtest.BitsDigest(st.resNorms[:], st.errNorms[:], st.norms[:], []float64{st.surface})
			})
		built.WriteString(b)
		recycled.WriteString(r)
	}
	npbtest.CheckFieldsGolden(t, built.String())
	npbtest.CheckFieldsGolden(t, recycled.String())
}
