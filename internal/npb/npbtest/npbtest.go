// Package npbtest holds what the bt, sp and lu field-golden tests share: a
// bit-level digest, an application-order runner, and the golden compare.
// It is imported by _test files only.
package npbtest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

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
