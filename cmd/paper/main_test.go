package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/tables"
)

// paper runs one in-process invocation through run(), the function
// main() calls.
func paper(args ...string) (stdout string, err error) {
	var out, errb bytes.Buffer
	err = run(args, &out, &errb)
	return out.String(), err
}

func TestUnknownTableListsEveryID(t *testing.T) {
	_, err := paper("-table", "nope")
	if err == nil {
		t.Fatal("unknown table accepted")
	}
	all := tables.All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	if len(ids) != 22 || !strings.HasSuffix(err.Error(), "known tables: "+strings.Join(ids, " ")) {
		t.Errorf("error %q, want it to end with all 22 IDs in registry order", err)
	}
}

func TestMalformedProcsIsAnError(t *testing.T) {
	out, err := paper("-fast", "-table", "2b", "-procs", "4,x")
	if err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("-procs 4,x: error %v, want the bad value named", err)
	}
	if out != "" {
		t.Errorf("a refused run printed %q", out)
	}
}

// TestAblationAndExtensionTables: each study folded in from the deleted
// root benchmark harness renders under its ID with the title and column
// headers that harness printed.
func TestAblationAndExtensionTables(t *testing.T) {
	for id, want := range map[string][]string{
		"ablation-chain": {"Ablation: chain length vs prediction error (BT class W, 4 procs)\n",
			"Predictor", "Relative Error", "Summation", "Coupling: 2 kernels", "Coupling: 5 kernels"},
		"ablation-weighting": {"Ablation: coefficient weighting (BT class W, 4 procs)\n",
			"Chain Length", "Weighted (paper)", "Unweighted"},
		"ablation-net": {"Ablation: interconnect cost model (LU class W, 4 procs)\n",
			"Configuration", "Actual", "Summation err", "Coupling-3 err", "LU.W.4 ", "LU.W.4+net"},
		"ablation-trim": {"Ablation: block aggregation (LU class W, 4 procs)\n",
			"Aggregation", "Summation err", "Coupling-3 err", "trimmed (default)", "raw mean"},
		"ext-ft": {"Extension: FT (8² FFT, 4 procs, trips=2)\n",
			"Predictor", "Seconds", "Relative Error", "Actual", "Summation", "Coupling: 4 kernels"},
		"ext-shared": {"Extension: disjoint vs shared working sets\n",
			"Working Set / Kernel", "C (disjoint)", "C (shared)", "128.0 KiB"},
	} {
		out, err := paper("-fast", "-table", id)
		if err != nil {
			t.Errorf("table %s: %v", id, err)
			continue
		}
		if !strings.HasPrefix(out, want[0]) {
			t.Errorf("table %s does not open with its title %q:\n%s", id, want[0], out)
		}
		for _, cell := range want[1:] {
			if !strings.Contains(out, cell) {
				t.Errorf("table %s missing %q:\n%s", id, cell, out)
			}
		}
		if !strings.Contains(out, "[table "+id+" regenerated in ") {
			t.Errorf("table %s: no regeneration footer:\n%s", id, out)
		}
	}
}

// TestFastRegeneratesEveryTable runs the whole of paper -fast: every one
// of the 22 tables is regenerated, in registry order, and the run exits
// cleanly.
func TestFastRegeneratesEveryTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fast"}, &stdout, &stderr); err != nil {
		t.Fatalf("paper -fast: %v\nstderr:\n%s", err, stderr.String())
	}
	var got []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "[table "); ok {
			id, _, _ := strings.Cut(rest, " ")
			got = append(got, id)
		}
	}
	all := tables.All()
	if len(got) != len(all) {
		t.Fatalf("%d tables regenerated, want %d: %v", len(got), len(all), got)
	}
	for i, e := range all {
		if got[i] != e.ID {
			t.Errorf("regeneration %d is table %s, want %s", i, got[i], e.ID)
		}
	}
}

// TestFailedTableDoesNotStopTheRun: with -procs 3, which BT and SP (square
// counts), LU and FT (powers of two) all refuse, every table with a
// processor count fails; each failure is reported, the tables without one
// still regenerate, and the error names every failed ID.
func TestFailedTableDoesNotStopTheRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-fast", "-procs", "3"}, &stdout, &stderr)
	var failed []string
	for _, e := range tables.All() {
		if len(e.Procs) > 0 {
			failed = append(failed, e.ID)
			if !strings.Contains(stderr.String(), "paper: table "+e.ID+": ") {
				t.Errorf("table %s's error not reported:\n%s", e.ID, stderr.String())
			}
		} else if !strings.Contains(stdout.String(), "[table "+e.ID+" regenerated in ") {
			t.Errorf("table %s not regenerated after the failures:\n%s", e.ID, stdout.String())
		}
	}
	if want := fmt.Sprintf("%d of 22 tables failed: %s", len(failed), strings.Join(failed, " ")); err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}

// TestCacheDirServesASecondRun: a run over a -cache-dir the first run
// warmed measures nothing, with every planned job a hit.
func TestCacheDirServesASecondRun(t *testing.T) {
	dir := t.TempDir()
	var summary [2]string
	for i := range summary {
		var stderr bytes.Buffer
		if err := run([]string{"-fast", "-table", "2a", "-cache-dir", dir}, io.Discard, &stderr); err != nil {
			t.Fatalf("run %d: %v\nstderr:\n%s", i+1, err, stderr.String())
		}
		summary[i] = stderr.String()
	}
	var planned, executed, hits, parallel int
	if _, err := fmt.Sscanf(summary[1], "paper: campaign jobs planned=%d executed=%d cache hits=%d (parallel=%d)",
		&planned, &executed, &hits, &parallel); err != nil {
		t.Fatalf("no campaign summary on the second run's stderr (%v):\n%s", err, summary[1])
	}
	if planned == 0 || executed != 0 || hits != planned {
		t.Errorf("second run: %q, want executed=0 and every planned job a hit (first run: %q)", summary[1], summary[0])
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
