package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// -list names every analyzer the suite runs, one per line.
func TestList(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-list"}, &stdout, io.Discard); err != nil {
		t.Fatalf("-list: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	all := analysis.All()
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines for %d analyzers:\n%s", len(lines), len(all), stdout.String())
	}
	for i, a := range all {
		if name := strings.Fields(lines[i])[0]; name != a.Name {
			t.Errorf("-list line %d names %q, want %q", i, name, a.Name)
		}
	}
}

// An analyzer name the suite does not have is a failure, not an empty run.
func TestOnlyUnknownAnalyzer(t *testing.T) {
	err := run([]string{"-only", "floatsum,nope", "../../internal/grid"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("-only nope: err = %v, want an unknown-analyzer error naming it", err)
	}
	if exitStatus(err) != 2 {
		t.Fatalf("exit status %d, want 2", exitStatus(err))
	}
}

// -json reports a fixture's findings with "clean": false and still exits
// 2; a package with no findings reports "clean": true and exits 0.
func TestJSONReport(t *testing.T) {
	for _, tc := range []struct {
		dir    string
		clean  bool
		status int
	}{
		{"../../internal/analysis/testdata/floatsum", false, 2},
		{"../../internal/grid", true, 0},
	} {
		var stdout bytes.Buffer
		err := run([]string{"-json", tc.dir}, &stdout, io.Discard)
		if got := exitStatus(err); got != tc.status {
			t.Fatalf("%s: exit status %d (err %v), want %d", tc.dir, got, err, tc.status)
		}
		var report jsonReport
		if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
			t.Fatalf("%s: -json output is not one JSON object: %v\n%s", tc.dir, err, stdout.String())
		}
		if report.Clean != tc.clean || report.Packages != 1 {
			t.Fatalf("%s: clean=%v packages=%d, want clean=%v packages=1", tc.dir, report.Clean, report.Packages, tc.clean)
		}
		if want := fmt.Sprintf(`"clean": %t`, tc.clean); !strings.Contains(stdout.String(), want) {
			t.Fatalf("%s: output lacks %s:\n%s", tc.dir, want, stdout.String())
		}
		if tc.clean != (len(report.Findings) == 0) {
			t.Fatalf("%s: %d findings with clean=%v", tc.dir, len(report.Findings), report.Clean)
		}
	}
}
