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
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/mpi"
	"repro/internal/npb"
)

var update = flag.Bool("update", false, "rewrite testdata/fields.golden; read npbtest.CheckFieldsGolden first")

// BitsDigest is the SHA-256 over the IEEE-754 bit patterns of the values,
// so -0.0 against 0.0 and a one-ulp drift both show.
func BitsDigest(vals ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, vs := range vals {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
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

// CheckFieldsGolden compares got with the calling package's
// testdata/fields.golden.
//
// DO NOT REGENERATE a fields.golden to make a test pass. Each was written
// by the implementation that preceded the fused 5×5 block kernels and the
// tabulated exact() factors — a copying, loop-nest block LU, and sin/cos
// evaluated per cell and component — and is the proof that those rewrites
// perform the same IEEE operations in the same order. -update is
// for a deliberate change of a benchmark's model (constants, stencil,
// decomposition), never for a kernel optimisation.
func CheckFieldsGolden(t *testing.T, got string) {
	t.Helper()
	golden := filepath.Join("testdata", "fields.golden")
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
		t.Errorf("fields drifted from the reference implementation's bits (do not regenerate; find the reordered operation):\n got:\n%s\nwant:\n%s", got, want)
	}
}
