package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden expect.txt files")

// fixtureCases pairs each testdata directory with the analyzer it
// exercises. Fixtures are loaded through the real module loader (so they
// may import repro/internal/mpi and friends) and the analyzer runs with
// its package filter bypassed — scope filtering is tested separately.
var fixtureCases = []struct {
	dir      string
	analyzer *Analyzer
}{
	{"mpisafety", MPISafety},
	{"determinism", Determinism},
	{"faultpkg", Determinism},
	{"obsregistry", Determinism},
	{"planpkg", Determinism},
	{"predictpkg", Determinism},
	{"floatsum", FloatSum},
	{"errcheckmpi", ErrcheckMPI},
	{"lockio", LockIO},
	{"hotalloc", HotAlloc},
	{"goroutineleak", GoroutineLeak},
	{"atomicmix", AtomicMix},
}

// sharedLoader caches type-checked stdlib/module packages across the
// subtests; building a fresh loader per fixture would re-type-check the
// stdlib closure five times.
var sharedLoader *Loader

func loaderFor(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader != nil {
		return sharedLoader
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	sharedLoader = l
	return l
}

func TestAnalyzerGoldens(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			l := loaderFor(t)
			dir := filepath.Join("testdata", tc.dir)
			pkg, err := l.LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkg.TypeErrors) > 0 {
				t.Fatalf("fixture has type errors: %v", pkg.TypeErrors)
			}
			// Bypass the package filter: fixture paths are not inside the
			// analyzer's production scope.
			unscoped := &Analyzer{Name: tc.analyzer.Name, Doc: tc.analyzer.Doc, Run: tc.analyzer.Run}
			diags := Run([]*Package{pkg}, []*Analyzer{unscoped})

			var b strings.Builder
			for _, d := range diags {
				fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
			}
			got := b.String()

			golden := filepath.Join(dir, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestSuppressionRequiresReason pins the contract that a bare
// kcvet:ignore is itself a finding: the floatsum fixture contains one, and
// the suppressed accumulation must still be reported as suppressed (i.e.
// absent), while the malformed directive shows up under the "kcvet"
// pseudo-analyzer.
func TestSuppressionRequiresReason(t *testing.T) {
	l := loaderFor(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "floatsum"))
	if err != nil {
		t.Fatal(err)
	}
	unscoped := &Analyzer{Name: FloatSum.Name, Run: FloatSum.Run}
	diags := Run([]*Package{pkg}, []*Analyzer{unscoped})
	var sawBadDirective, sawMissingReasonAccum bool
	for _, d := range diags {
		if d.Analyzer == "kcvet" && strings.Contains(d.Message, "reason") {
			sawBadDirective = true
		}
		// The accumulation "suppressed" by the reasonless directive must
		// still be reported: a directive without a justification is void.
		if d.Analyzer == "floatsum" && d.Pos.Line == badDirectiveLine(t, pkg) {
			sawMissingReasonAccum = true
		}
	}
	if !sawBadDirective {
		t.Error("reasonless kcvet:ignore was not reported")
	}
	if !sawMissingReasonAccum {
		t.Error("finding under a reasonless kcvet:ignore was swallowed")
	}
}

// badDirectiveLine locates the reasonless directive in the fixture so the
// test does not hard-code a line number.
func badDirectiveLine(t *testing.T, pkg *Package) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(pkg.Dir, "fixture.go"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasSuffix(strings.TrimSpace(line), "//kcvet:ignore floatsum") {
			return i + 1
		}
	}
	t.Fatal("fixture lost its reasonless directive")
	return 0
}

// TestIgnoreScopeNestedLiterals pins the suppression-scoping contract
// for the interprocedural analyzers: a kcvet:ignore reaches its own
// line and the next one, never into a nested function literal. Each new
// fixture marks its suppressed line with "// suppressed" and the
// finding that must escape the directive with "// survives"; the golden
// file must omit the former and contain the latter.
func TestIgnoreScopeNestedLiterals(t *testing.T) {
	for _, dir := range []string{"lockio", "hotalloc", "goroutineleak", "atomicmix"} {
		t.Run(dir, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", dir, "fixture.go"))
			if err != nil {
				t.Fatal(err)
			}
			golden, err := os.ReadFile(filepath.Join("testdata", dir, "expect.txt"))
			if err != nil {
				t.Fatal(err)
			}
			var sawSuppressed, sawSurvives bool
			for i, line := range strings.Split(string(src), "\n") {
				at := fmt.Sprintf("fixture.go:%d:", i+1)
				if strings.Contains(line, "// suppressed") {
					sawSuppressed = true
					if strings.Contains(string(golden), at) {
						t.Errorf("line %d is marked suppressed but appears in the golden", i+1)
					}
				}
				if strings.Contains(line, "// survives") {
					sawSurvives = true
					if !strings.Contains(string(golden), at) {
						t.Errorf("line %d is marked surviving but is missing from the golden", i+1)
					}
				}
			}
			if !sawSuppressed || !sawSurvives {
				t.Fatalf("fixture lost its scoping markers (suppressed=%v survives=%v)", sawSuppressed, sawSurvives)
			}
		})
	}
}

// TestScopes pins which packages each analyzer runs on in production.
func TestScopes(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		path     string
		want     bool
	}{
		{MPISafety, "repro/internal/npb/bt", true},
		{MPISafety, "repro/internal/mpi", false},
		{Determinism, "repro/internal/core", true},
		{Determinism, "repro/internal/trace", true},
		{Determinism, "repro/internal/obs", true},
		{Determinism, "repro/internal/fault", true},
		{Determinism, "repro/internal/npb", false},
		{Determinism, "repro/internal/timing", false},
		{FloatSum, "repro/internal/stats", true},
		{FloatSum, "repro/internal/linalg", true},
		{FloatSum, "repro/internal/npb/lu", false},
		{ErrcheckMPI, "repro/internal/harness", true},
		{ErrcheckMPI, "repro/internal/mpi", false},
	}
	for _, c := range cases {
		if got := c.analyzer.Applies(c.path); got != c.want {
			t.Errorf("%s.Applies(%q) = %v, want %v", c.analyzer.Name, c.path, got, c.want)
		}
	}
}

// TestByName covers the -only selector.
func TestByName(t *testing.T) {
	as, err := ByName([]string{"floatsum", "mpisafety"})
	if err != nil || len(as) != 2 || as[0].Name != "floatsum" {
		t.Fatalf("ByName = %v, %v", as, err)
	}
	if _, err := ByName([]string{"nope"}); err == nil {
		t.Error("unknown analyzer name should error")
	}
}

// TestSelfClean runs the full suite over the module exactly as the CI
// gate does: the tree must stay finding-free.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	l := loaderFor(t)
	pkgs, err := l.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages — the ./... walker lost the tree", len(pkgs))
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Errorf("%s: type errors: %v", p.Path, p.TypeErrors)
		}
	}
	diags := Run(pkgs, All())
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}
