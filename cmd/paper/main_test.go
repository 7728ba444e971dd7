package main

import (
	"bytes"
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
