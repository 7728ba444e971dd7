package npb_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/bt"
	"repro/internal/npb/lu"
	"repro/internal/npb/npbtest"
	"repro/internal/npb/sp"
)

// TestMessagesGolden pins every rank's message stream — each message's
// destination, tag and length, in order, set-up's included — over the
// three-trip application of BT, SP and LU at the shapes of their
// fields.golden, on a factory's first world, which builds its state, and
// its second, which rebinds it (see npbtest.CheckGolden before touching
// it). A line is a rank's message count and the digest of its stream.
func TestMessagesGolden(t *testing.T) {
	type shape struct{ n, procs int }
	benches := []struct {
		name            string
		factory         func(p npb.Problem, procs int) (*npb.Factory, error)
		pre, loop, post []string
		shapes          []shape
	}{
		{name: "BT", factory: func(p npb.Problem, procs int) (*npb.Factory, error) {
			return bt.Factory(bt.Config{Problem: p, Procs: procs})
		}, shapes: []shape{{12, 1}, {12, 4}, {12, 9}, {10, 4}, {10, 9}}},
		{name: "SP", factory: func(p npb.Problem, procs int) (*npb.Factory, error) {
			return sp.Factory(sp.Config{Problem: p, Procs: procs})
		}, shapes: []shape{{12, 1}, {12, 4}}},
		{name: "LU", factory: func(p npb.Problem, procs int) (*npb.Factory, error) {
			return lu.Factory(lu.Config{Problem: p, Procs: procs})
		}, shapes: []shape{{12, 1}, {12, 4}}},
	}
	benches[0].pre, benches[0].loop, benches[0].post = bt.KernelNames()
	benches[1].pre, benches[1].loop, benches[1].post = sp.KernelNames()
	benches[2].pre, benches[2].loop, benches[2].post = lu.KernelNames()
	var got strings.Builder
	for _, b := range benches {
		for _, sh := range b.shapes {
			f, err := b.factory(npb.TinyProblem(sh.n, 3), sh.procs)
			if err != nil {
				t.Fatal(err)
			}
			for _, wantFresh := range []bool{true, false} {
				lines := make([]string, sh.procs)
				err := npbtest.RunLogged(f, sh.procs, func(c *mpi.Comm, ks npb.KernelSet, fresh bool, sent *[]string) {
					if fresh != wantFresh {
						panic(fmt.Sprintf("fresh = %v, want %v", fresh, wantFresh))
					}
					npbtest.RunApp(ks, b.pre, b.loop, 3, b.post)
					lines[c.Rank()] = fmt.Sprintf("%s n=%d procs=%d rank=%d fresh=%v msgs=%d sent=%x\n", b.name, sh.n, sh.procs,
						c.Rank(), fresh, len(*sent), sha256.Sum256([]byte(strings.Join(*sent, " "))))
				})
				if err != nil {
					t.Fatal(err)
				}
				got.WriteString(strings.Join(lines, ""))
			}
		}
	}
	npbtest.CheckGolden(t, "messages.golden", got.String())
}
