package bt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/npb/npbtest"
)

// TestFieldsGolden pins every bit of the solution, right-hand side and
// forcing fields (ghosts included) and of the verification norms after a
// three-trip run, per rank, for even and uneven decompositions. The golden
// predates the fused block kernels: see npbtest.CheckFieldsGolden before
// touching it.
func TestFieldsGolden(t *testing.T) {
	npbtest.SkipUnlessAMD64(t)
	var got strings.Builder
	for _, tc := range []struct{ n, procs int }{{12, 1}, {12, 4}, {12, 9}, {10, 4}, {10, 9}} {
		lines := make([]string, tc.procs)
		withState(t, tinyConfig(tc.n, tc.procs), func(st *state) {
			pre, loop, post := KernelNames()
			npbtest.RunApp(st, pre, loop, 3, post)
			lines[st.c.Rank()] = fmt.Sprintf("n=%d procs=%d rank=%d fields=%s norms=%s\n",
				tc.n, tc.procs, st.c.Rank(),
				npbtest.BitsDigest(st.u.Data, st.rhs.Data, st.forcing.Data),
				npbtest.BitsDigest(st.norms[:]))
		})
		for _, l := range lines {
			got.WriteString(l)
		}
	}
	npbtest.CheckFieldsGolden(t, got.String())
}
