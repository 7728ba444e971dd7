// Package npbtest holds what the bt, sp and lu bit-level tests share: a
// digest, an application-order runner, the golden compare, and the seeded
// fields the kernels are compared with their loop-nest oracles on.
// It is imported by _test files only.
package npbtest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/npb"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden; read npbtest.CheckGolden first")

// Clone returns a deep copy of the field: the reference a kernel's
// output is compared with.
func Clone(f *npb.Field) *npb.Field {
	g := npb.NewField(f.NC, f.Nx, f.Ny, f.Nz, f.G)
	copy(g.Data, f.Data)
	return g
}

// BitsDigest is the SHA-256 over the IEEE-754 bit patterns of the values,
// so -0.0 against 0.0 and a one-ulp drift both show.
func BitsDigest(vals ...[]float64) string {
	h := sha256.New()
	b := make([]byte, 0, 4096) // hashed a block at a time: a Write a value is most of the cost under -race
	for _, vs := range vals {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			if len(b) == cap(b) {
				h.Write(b)
				b = b[:0]
			}
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// FillRandom overwrites vals with seeded values in (-1, 1), one in eight
// replaced by a value on which a reordered, elided or fused operation shows
// where ordinary values hide it: a zero of either sign or a denormal. With
// nan, one value becomes a NaN, which every kernel must carry to the same
// outputs as its oracle.
func FillRandom(rng *rand.Rand, vals []float64, nan bool) {
	for i := range vals {
		v := rng.Float64()*2 - 1
		switch rng.Intn(32) {
		case 0:
			v = 0
		case 1:
			v = math.Copysign(0, -1)
		case 2:
			v = math.Copysign(5e-324*float64(1+rng.Intn(1000)), v)
		case 3:
			v = math.Copysign(2.2e-308*rng.Float64(), v)
		}
		vals[i] = v
	}
	if nan {
		vals[rng.Intn(len(vals))] = math.NaN()
	}
}

// RaceEnabled reports whether the test binary was built with -race, under
// which sync.Pool drops a quarter of its Puts and a zero-allocation
// assertion over pooled message payloads cannot hold.
func RaceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// AllocsInStep returns, on rank 0, the process's heap allocations per call
// of kernel while every rank of c calls it in step; the other ranks return
// 0. Every rank of c must call AllocsInStep with the same kernel. A barrier
// after each call keeps the ranks together, as the ring of kernels does in a
// measurement window: the head of a pipelined sweep would otherwise run
// whole calls ahead and grow the message pool by their messages. The count
// is testing.AllocsPerRun's average over enough calls that a pipeline
// reaching a new depth once (a few pool misses, not repeatable) rounds to
// nothing while one allocation a call on one rank does not. The world should
// be unwatched, as a study's is: mpi.WithRecvTimeout allocates a timer per
// receive.
func AllocsInStep(c *mpi.Comm, kernel func()) float64 {
	const warm, runs = 8, 50
	run := func() { kernel(); c.Barrier() }
	for i := 0; i < warm; i++ {
		run() // the first calls size mailboxes and pools
	}
	if c.Rank() != 0 {
		for i := 0; i <= runs; i++ { // AllocsPerRun's own warm-up call, then its runs
			run()
		}
		return 0
	}
	return testing.AllocsPerRun(runs, run)
}

// RunApp executes pre, trips × loop, post on one rank in application order.
func RunApp(ks npb.KernelSet, pre, loop []string, trips int, post []string) {
	run := func(names []string) {
		for _, k := range names {
			if err := ks.RunKernel(k); err != nil {
				panic(err)
			}
		}
	}
	run(pre)
	for trip := 0; trip < trips; trip++ {
		run(loop)
	}
	run(post)
}

// SkipUnlessAMD64 skips a bit-level golden on ports whose compiler fuses
// x*y+z (arm64, ppc64, s390x): the committed bits are amd64's, and the
// tolerance-based tests carry the check elsewhere. Casting every product
// through float64() in the kernels would buy portability of a test at the
// price of the kernels' readability.
func SkipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("bit-level golden is amd64's: other ports fuse multiply-add")
	}
}

// CheckGolden compares got with the calling package's testdata/name.
//
// DO NOT REGENERATE a golden to make a test pass. Each fields.golden was
// written by the implementation that preceded the fused 5×5 block kernels
// and the tabulated exact() factors — a copying, loop-nest block LU, and
// sin/cos evaluated per cell and component — and is the proof that those
// rewrites perform the same IEEE operations in the same order.
// messages.golden was written by the per-benchmark face exchanges the
// shared halo replaced: every message's destination, tag and length, in
// order, which fault decisions and spans key on. -update is for a
// deliberate change of a benchmark's model (constants, stencil,
// decomposition), never for a kernel optimisation or a refactor.
func CheckGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from the reference implementation's (do not regenerate; find what moved):\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

// FieldsGoldenLines runs the three-trip application on a new factory's
// first two worlds and returns each world's golden lines, one a rank:
// digests(state) are its fields and norms digests. The first world builds
// its state; the second rebinds it, poison overwrites its scratch arrays
// before the run, and it must write the same lines.
func FieldsGoldenLines(t *testing.T, f *npb.Factory, n, procs int, pre, loop, post []string,
	poison func(npb.KernelSet), digests func(npb.KernelSet) (fields, norms string)) (built, recycled string) {
	t.Helper()
	world := func(wantFresh bool) string {
		lines := make([]string, procs)
		err := f.Run(procs, func(c *mpi.Comm, ks npb.KernelSet, fresh bool) {
			if fresh != wantFresh {
				panic(fmt.Sprintf("fresh = %v, want %v", fresh, wantFresh))
			}
			if !fresh {
				poison(ks)
			}
			RunApp(ks, pre, loop, 3, post)
			fields, norms := digests(ks)
			lines[c.Rank()] = fmt.Sprintf("n=%d procs=%d rank=%d fields=%s norms=%s\n", n, procs, c.Rank(), fields, norms)
		}, mpi.WithRecvTimeout(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(lines, "")
	}
	return world(true), world(false)
}

// msgLog is an mpi.Injector that injects nothing and records the identity —
// destination, tag, length — of every message each rank sends, in order.
// A rank writes only its own slot, on its own goroutine.
type msgLog [][]string

func (l msgLog) Op(int, string) mpi.OpFault { return mpi.OpFault{} }

func (l msgLog) Message(src, dest, tag, bytes int) mpi.MsgFault {
	l[src] = append(l[src], fmt.Sprintf("%d/%d/%d", dest, tag, bytes))
	return mpi.MsgFault{}
}

// RunLogged runs one world of f with the identity of every message each
// rank sends logged, destination/tag/length in order; fn runs on every rank
// as Factory.Run's does, with the rank's log, set-up's messages in it.
func RunLogged(f *npb.Factory, procs int, fn func(c *mpi.Comm, ks npb.KernelSet, fresh bool, sent *[]string)) error {
	log := make(msgLog, procs)
	return f.Run(procs, func(c *mpi.Comm, ks npb.KernelSet, fresh bool) {
		fn(c, ks, fresh, &log[c.Rank()])
	}, mpi.WithInjector(log), mpi.WithRecvTimeout(30*time.Second))
}

// rings returns the ring's windows of the given length, one starting at
// every kernel, wrapping — the windows a study measures.
func rings(loop []string, length int) [][]string {
	wins := make([][]string, len(loop))
	for i := range loop {
		for j := 0; j < length; j++ {
			wins[i] = append(wins[i], loop[(i+j)%len(loop)])
		}
	}
	return wins
}

// CheckRecycledMatchesFresh holds a benchmark's Rebind to its contract: a
// world that rebinds the state another world left computes, bit for bit and
// message for message, what the same world computes on state built for it.
//
// One factory runs the full three-trip application and then, as a study
// does, one world after another on the state the last one left: the full
// application again, every kernel alone, every ring window of two and three
// kernels, the latter two as a measurement runs them (a pass, Refresh, a
// pass). Each of those worlds, B, also runs on a factory of its own. B's
// record is
// bits(state) after every kernel and every Refresh, then the rank's
// messages; the two records must be equal. bits covers the fields with
// their ghosts and every norm. A window that starts mid-ring is the case
// that would read a scratch array the last world left, so before a rebound
// B runs, poison overwrites every scratch array with NaN: "written before
// read" is shown, not argued.
//
// Message contents are not logged (mpi has no payload tap): every payload is
// packed from the fields and lands in them, ghosts included, so a differing
// byte shows in bits after the kernel that received it.
func CheckRecycledMatchesFresh(t *testing.T, newFactory func() *npb.Factory, procs int,
	pre, loop, post []string, poison func(npb.KernelSet), bits func(npb.KernelSet) string) {
	t.Helper()
	var app []string
	app = append(app, pre...)
	for trip := 0; trip < 3; trip++ {
		app = append(app, loop...)
	}
	app = append(app, post...)
	type world struct {
		name   string
		passes [][]string
	}
	worlds := []world{{"app", [][]string{app}}}
	for _, k := range app[:len(pre)+len(loop)] {
		worlds = append(worlds, world{k, [][]string{{k}, {k}}})
	}
	for _, k := range post {
		worlds = append(worlds, world{k, [][]string{{k}, {k}}})
	}
	for _, length := range []int{2, 3} {
		for _, win := range rings(loop, length) {
			worlds = append(worlds, world{strings.Join(win, "|"), [][]string{win, win}})
		}
	}
	run := func(f *npb.Factory, b world, wantFresh bool) string {
		records := make([]string, procs)
		err := RunLogged(f, procs, func(c *mpi.Comm, ks npb.KernelSet, fresh bool, sent *[]string) {
			if fresh != wantFresh {
				panic(fmt.Sprintf("world %s: fresh = %v, want %v", b.name, fresh, wantFresh))
			}
			if !fresh {
				poison(ks)
			}
			*sent = (*sent)[:0] // set-up's messages are not B's
			var rec strings.Builder
			for p, pass := range b.passes {
				if p > 0 {
					ks.Refresh()
					fmt.Fprintf(&rec, "refresh=%s\n", bits(ks))
				}
				for _, k := range pass {
					if err := ks.RunKernel(k); err != nil {
						panic(err)
					}
					fmt.Fprintf(&rec, "%s=%s\n", k, bits(ks))
				}
			}
			fmt.Fprintf(&rec, "sent=%s\n", strings.Join(*sent, " "))
			records[c.Rank()] = rec.String()
		})
		if err != nil {
			t.Fatalf("world %s: %v", b.name, err)
		}
		return strings.Join(records, "")
	}
	f := newFactory()
	run(f, worlds[0], true)
	for _, b := range worlds {
		got, want := run(f, b, false), run(newFactory(), b, true)
		if got != want {
			t.Errorf("procs=%d world %s on recycled state drifted from the same world on fresh state:\n got:\n%s\nwant:\n%s", procs, b.name, got, want)
		}
	}
}

// Poison overwrites every value with NaN.
func Poison(arrays ...[]float64) {
	for _, a := range arrays {
		for i := range a {
			a[i] = math.NaN()
		}
	}
}
