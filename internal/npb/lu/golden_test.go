package lu

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/npb/npbtest"
)

// TestFieldsGolden pins every bit of the solution, residual and forcing
// fields (ghosts included) and of the residual, error and solution norms
// and the surface integral after a three-trip run, per rank, serial and on
// 2×2 pencils. The golden predates the tabulated exact() factors: see
// npbtest.CheckFieldsGolden before touching it.
func TestFieldsGolden(t *testing.T) {
	npbtest.SkipUnlessAMD64(t)
	var got strings.Builder
	for _, tc := range []struct{ n, procs int }{{12, 1}, {12, 4}} {
		lines := make([]string, tc.procs)
		withState(t, tinyConfig(tc.n, tc.procs), func(st *state) {
			pre, loop, post := KernelNames()
			npbtest.RunApp(st, pre, loop, 3, post)
			lines[st.c.Rank()] = fmt.Sprintf("n=%d procs=%d rank=%d fields=%s norms=%s\n",
				tc.n, tc.procs, st.c.Rank(),
				npbtest.BitsDigest(st.u.Data, st.rsd.Data, st.frct.Data),
				npbtest.BitsDigest(st.resNorms[:], st.errNorms[:], st.norms[:], []float64{st.surface}))
		})
		for _, l := range lines {
			got.WriteString(l)
		}
	}
	npbtest.CheckFieldsGolden(t, got.String())
}
