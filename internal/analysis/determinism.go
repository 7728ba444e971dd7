package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// determinismScope lists the packages whose output must be bit-identical
// across runs: everything between a set of measured times going in and a
// table of predictions coming out, plus the fault injector, whose schedule
// must be a pure function of its seed (a wall-clock or global-rand read
// there would break same-seed-same-schedule reproducibility), and the
// measurement planner, whose job order and content-addressed keys are a
// cache contract — a map-range or time-source read there would split the
// cache or scramble the serial execution order. Measurement packages
// (timing, npb, mpi) are excluded — they read real clocks by design and
// reach determinism through the injectable timing.Clock instead.
var determinismScope = map[string]bool{
	"repro/internal/core":     true,
	"repro/internal/fault":    true,
	"repro/internal/memmodel": true,
	"repro/internal/obs":      true,
	"repro/internal/plan":     true,
	"repro/internal/predict":  true,
	"repro/internal/stats":    true,
	"repro/internal/tables":   true,
	"repro/internal/trace":    true,
}

// wallClockFuncs are the package-time entry points that read the wall
// clock or schedule on it.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true,
	"After": true, "AfterFunc": true, "NewTicker": true, "NewTimer": true,
}

// Determinism flags the three stdlib features that silently make model
// output run-dependent: wall-clock reads, the process-global math/rand
// source, and iteration over maps (whose order is randomized per run).
var Determinism = &Analyzer{
	Name:    "determinism",
	Doc:     "wall-clock reads, global math/rand, and map iteration in packages whose output must be reproducible",
	Applies: func(path string) bool { return determinismScope[path] },
	Run:     runDeterminism,
}

// isCollectAppend recognizes the recommended deterministic idiom's first
// half — a loop whose whole body is `xs = append(xs, ...)` — so that
// collecting keys for sorting is not itself a finding.
func isCollectAppend(n *ast.RangeStmt) bool {
	if len(n.Body.List) != 1 {
		return false
	}
	as, ok := n.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append"
}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name, ok := pkgQualified(pass.Info, n, "time"); ok && wallClockFuncs[name] {
					pass.Reportf(n.Pos(), "time.%s reads the wall clock: inject a timing.Clock so runs are reproducible", name)
				}
				// Constructors (rand.New, rand.NewSource, ...) build the
				// explicitly seeded generators that ARE the fix; only
				// draws from the package-global source are findings.
				if name, ok := pkgQualified(pass.Info, n, "math/rand"); ok && !strings.HasPrefix(name, "New") {
					pass.Reportf(n.Pos(), "math/rand.%s draws from the process-global source: use an explicitly seeded *rand.Rand", name)
				}
				if name, ok := pkgQualified(pass.Info, n, "math/rand/v2"); ok && !strings.HasPrefix(name, "New") {
					pass.Reportf(n.Pos(), "math/rand/v2.%s is seeded randomly at startup: use an explicitly seeded generator", name)
				}
			case *ast.RangeStmt:
				if t := pass.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap && !isCollectAppend(n) {
						pass.Reportf(n.Pos(), "map iteration order is randomized per run: collect the keys, sort them, then iterate")
					}
				}
			}
			return true
		})
	}
}
