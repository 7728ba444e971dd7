package benchdiff

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func snapshot(t *testing.T, benches ...Benchmark) File {
	t.Helper()
	return File{Date: "test", Benchmarks: benches}
}

func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

func TestCompareThresholds(t *testing.T) {
	old := snapshot(t, bench("A", 1000, 100))
	cases := []struct {
		name string
		new  Benchmark
		want int // regressions
	}{
		{"within both", bench("A", 1100, 105), 0},
		{"ns at limit", bench("A", 1150, 100), 0}, // exactly +15% is not past the limit
		{"ns past limit", bench("A", 1151, 100), 1},
		{"allocs +8% passes", bench("A", 1000, 108), 0},
		{"allocs +12% fails", bench("A", 1000, 112), 1},
		{"both regress", bench("A", 2000, 200), 2},
		{"improvement", bench("A", 500, 50), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			regs := Compare(old, snapshot(t, tc.new), DefaultThresholds)
			if len(regs) != tc.want {
				t.Fatalf("got %d regressions %v, want %d", len(regs), regs, tc.want)
			}
		})
	}
}

func TestCompareSkipsUnsharedBenchmarks(t *testing.T) {
	old := snapshot(t, bench("Gone", 100, 10), bench("Kept", 100, 10))
	cur := snapshot(t, bench("Kept", 100, 10), bench("New", 1e9, 1e6))
	if regs := Compare(old, cur, DefaultThresholds); len(regs) != 0 {
		t.Fatalf("unshared benchmarks should not regress, got %v", regs)
	}
	removed, added := churn(old, cur)
	if len(removed) != 1 || removed[0] != "Gone" || len(added) != 1 || added[0] != "New" {
		t.Fatalf("churn = %v, %v", removed, added)
	}
}

func TestCheckDirWarnsWithOneSnapshot(t *testing.T) {
	dir := t.TempDir()
	writeSnapshot(t, filepath.Join(dir, "BENCH_2026-01-01.json"), snapshot(t, bench("A", 100, 10)))
	var out strings.Builder
	if err := CheckDir(dir, DefaultThresholds, &out); err != nil {
		t.Fatalf("one snapshot must warn, not fail: %v", err)
	}
	if !strings.Contains(out.String(), "skipping") {
		t.Fatalf("expected skip warning, got %q", out.String())
	}
}

func TestCheckDirPicksNewestTwo(t *testing.T) {
	dir := t.TempDir()
	// Oldest snapshot has a huge ns/op; if CheckDir wrongly diffed
	// against it, the middle->newest comparison would look like a
	// massive improvement and the injected regression would hide.
	writeSnapshot(t, filepath.Join(dir, "BENCH_2026-01-01.json"), snapshot(t, bench("A", 1e9, 10)))
	writeSnapshot(t, filepath.Join(dir, "BENCH_2026-02-01.json"), snapshot(t, bench("A", 1000, 10)))
	writeSnapshot(t, filepath.Join(dir, "BENCH_2026-03-01.json"), snapshot(t, bench("A", 1300, 10)))
	var out strings.Builder
	err := CheckDir(dir, DefaultThresholds, &out)
	if err == nil {
		t.Fatalf("expected regression between newest two, got clean:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "BENCH_2026-02-01.json -> BENCH_2026-03-01.json") {
		t.Fatalf("diffed the wrong pair:\n%s", out.String())
	}
}

// TestCheckDirCatchesInjectedRegression is the acceptance demo from the
// issue: copy the repo's real committed BENCH snapshot, perturb every
// ns/op by +20%, and require the gate to fail.
func TestCheckDirCatchesInjectedRegression(t *testing.T) {
	real := findRepoSnapshot(t)
	base, err := LoadFile(real)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	writeSnapshot(t, filepath.Join(dir, "BENCH_2026-01-01.json"), base)

	perturbed := base
	perturbed.Benchmarks = make([]Benchmark, len(base.Benchmarks))
	nsops := 0 // entries like ChaosServe carry only custom metrics
	for i, b := range base.Benchmarks {
		m := make(map[string]float64, len(b.Metrics))
		for k, v := range b.Metrics {
			m[k] = v
		}
		if _, ok := m["ns/op"]; ok {
			m["ns/op"] *= 1.20
			nsops++
		}
		perturbed.Benchmarks[i] = Benchmark{Name: b.Name, Metrics: m}
	}
	writeSnapshot(t, filepath.Join(dir, "BENCH_2026-01-02.json"), perturbed)

	var out strings.Builder
	err = CheckDir(dir, DefaultThresholds, &out)
	if err == nil {
		t.Fatalf("+20%% ns/op across the board must fail the gate:\n%s", out.String())
	}
	// Every benchmark with an ns/op metric regressed.
	if got := strings.Count(out.String(), "REGRESSION"); got != nsops {
		t.Fatalf("expected %d regressions, saw %d:\n%s", nsops, got, out.String())
	}

	// Sanity: the unperturbed copy diffed against itself is clean.
	clean := t.TempDir()
	writeSnapshot(t, filepath.Join(clean, "BENCH_2026-01-01.json"), base)
	writeSnapshot(t, filepath.Join(clean, "BENCH_2026-01-02.json"), base)
	if err := CheckDir(clean, DefaultThresholds, &out); err != nil {
		t.Fatalf("identical snapshots must pass: %v", err)
	}
}

// findRepoSnapshot locates a committed BENCH_*.json at the module root
// (two levels up from this package).
func findRepoSnapshot(t *testing.T) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(matches) == 0 {
		t.Skipf("no committed BENCH_*.json found: %v", err)
	}
	return matches[len(matches)-1]
}

func writeSnapshot(t *testing.T, path string, f File) {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFileErrors(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Fatal("malformed json must error")
	}
	empty := filepath.Join(t.TempDir(), "BENCH_y.json")
	if err := os.WriteFile(empty, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(empty); err == nil {
		t.Fatal("empty benchmarks must error")
	}
}
