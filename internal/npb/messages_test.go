package npb_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/bt"
	"repro/internal/npb/lu"
	"repro/internal/npb/npbtest"
	"repro/internal/npb/sp"
	"repro/internal/timing"
)

// TestMessagesGolden pins every rank's message stream — each message's
// destination, tag and length, in order, set-up's included — over the
// three-trip application of BT, SP and LU at the shapes of their
// fields.golden, on a factory's first world, which builds its state, and
// its second, which rebinds it (see npbtest.CheckGolden before touching
// it). A line is a rank's message count and the digest of its stream.
// The measurement worlds follow: a MeasureWindowDetail world (3 blocks of
// a 2-kernel window) and a MeasureFull world of each benchmark at 4 ranks,
// built and recycled, their barriers included.
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
	const procs = 4
	for _, b := range benches {
		for _, measure := range []string{"window", "full"} {
			f, err := b.factory(npb.TinyProblem(12, 3), procs)
			if err != nil {
				t.Fatal(err)
			}
			for _, wantRecycled := range []bool{false, true} {
				log := make(sentLog, procs)
				o := npb.MeasureOptions{Procs: procs, WorldOpts: []mpi.Option{mpi.WithInjector(log), mpi.WithRecvTimeout(30 * time.Second)}}
				var world npb.WorldStats
				if measure == "window" {
					var wm npb.WindowMeasurement
					wm, err = npb.MeasureWindowDetail(f, b.loop[:2], timing.Protocol{Blocks: 3, Passes: 1}, o)
					world = wm.World
				} else {
					_, world, err = npb.MeasureFull(f, b.pre, b.loop, 3, b.post, o)
				}
				if err != nil {
					t.Fatal(err)
				}
				if world.Recycled != wantRecycled {
					t.Fatalf("%s %s world: recycled = %v, want %v", b.name, measure, world.Recycled, wantRecycled)
				}
				for rank, sent := range log {
					fmt.Fprintf(&got, "%s measure=%s procs=%d rank=%d recycled=%v msgs=%d sent=%x\n", b.name, measure, procs,
						rank, world.Recycled, len(sent), sha256.Sum256([]byte(strings.Join(sent, " "))))
				}
			}
		}
	}
	npbtest.CheckGolden(t, "messages.golden", got.String())
}

// sentLog is an mpi.Injector that injects nothing and records the identity
// — destination, tag, length — of every message each rank sends, in order.
type sentLog [][]string

func (l sentLog) Op(int, string) mpi.OpFault { return mpi.OpFault{} }

func (l sentLog) Message(src, dest, tag, bytes int) mpi.MsgFault {
	l[src] = append(l[src], fmt.Sprintf("%d/%d/%d", dest, tag, bytes))
	return mpi.MsgFault{}
}
