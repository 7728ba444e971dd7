package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// These tests hold the process to account through run(), the function
// main() calls. The benchmarks' numerics are internal/npb's to test;
// here only what the command adds: flag checks, the output a run prints,
// and the report a failed run leaves.

// npbrun runs one in-process invocation on the tiny 8-cell grid.
func npbrun(extra ...string) (stdout, stderr string, err error) {
	var out, errb bytes.Buffer
	err = run(append([]string{"-grid", "8", "-trips", "2", "-procs", "4"}, extra...), &out, &errb)
	return out.String(), errb.String(), err
}

var elapsed = regexp.MustCompile(`(?m)^completed in .*$`)

// TestOutputPerBenchmark pins the header line and the verification
// norms: npbrun builds its workload through internal/tables like every
// other binary, and prints what it printed when it built them itself.
func TestOutputPerBenchmark(t *testing.T) {
	for bench, want := range map[string]string{
		"BT": `BT class S  grid 8 x 8 x 8  4 procs  2 loop trips
completed in T
verification norms (rank-count invariant):
  component 0: 1.016218963530e+00
  component 1: 1.076299387295e+00
  component 2: 1.090388037288e+00
  component 3: 1.120970071686e+00
  component 4: 1.148484319805e+00
`,
		"SP": `SP class S  grid 8 x 8 x 8  4 procs  2 loop trips
completed in T
verification norms (rank-count invariant):
  component 0: 1.114378156945e+00
  component 1: 1.240302904508e+00
  component 2: 1.367235657498e+00
  component 3: 1.479285013159e+00
  component 4: 1.596048809094e+00
`,
		"LU": `LU class S  grid 8 x 8 x 8  4 procs  2 loop trips
completed in T
verification norms (rank-count invariant):
  component 0: 1.032118562224e+00
  component 1: 1.046730020115e+00
  component 2: 1.105501084778e+00
  component 3: 1.099794119404e+00
  component 4: 1.122920143431e+00
`,
		"FT": `FT class S  grid 8 x 8 x 1  4 procs  2 loop trips
completed in T
verification norms (rank-count invariant):
  component 0: 4.117864800000e+01
  component 1: 5.070473657264e+00
  component 2: -5.832542633034e+00
  component 3: 0.000000000000e+00
  component 4: 0.000000000000e+00
`,
	} {
		out, stderr, err := npbrun("-bench", bench)
		if err != nil {
			t.Fatalf("%s: %v\nstderr:\n%s", bench, err, stderr)
		}
		if got := elapsed.ReplaceAllString(out, "completed in T"); got != want {
			t.Errorf("%s output:\n%s\nwant:\n%s", bench, got, want)
		}
	}
}

// TestRankCrashIsAStructuredError: an injected rank crash comes back as
// an error naming the dead rank — not a panic, which would take the test
// binary down — and the manifest of the failed run carries the same keys
// a successful one does.
func TestRankCrashIsAStructuredError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	_, stderr, err := npbrun("-bench", "BT", "-fault-spec", "crash:rank=2,at=40", "-fault-seed", "7", "-metrics-out", path)
	if err == nil {
		t.Fatal("a crashed rank went unreported")
	}
	if !strings.Contains(err.Error(), "rank 2") {
		t.Errorf("crash report does not name the dead rank: %v", err)
	}
	if !strings.Contains(stderr, "fault schedule:") {
		t.Errorf("no fault schedule on stderr:\n%s", stderr)
	}
	man, err := obs.ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if man.Extra["grid"] != "8" {
		t.Errorf("failed run's manifest extra = %v, want the grid a successful run records", man.Extra)
	}
	if man.Health == nil || len(man.Health.Errors) != 1 || !strings.Contains(man.Health.Errors[0], "rank 2") {
		t.Errorf("manifest health = %+v, want the crash", man.Health)
	}
}

// TestHelpIsPinned: the flags' -h text, defaults included, is the
// golden's, so the shared presets behind the defaults cannot drift.
func TestHelpIsPinned(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h: %v, want flag.ErrHelp", err)
	}
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := stderr.String(); got != string(want) {
		t.Errorf("-h output changed:\n%s\nwant:\n%s", got, want)
	}
}
