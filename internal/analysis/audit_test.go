package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"testing"
)

// TestGoroutineLeakAudit is the recorded outcome of auditing the two
// concurrency-bearing serving subsystems with the goroutineleak
// analyzer: internal/serve (the /predict handler and its measurement
// path) and internal/singleflight (per-key call deduplication). Both
// came back clean with zero findings and zero suppressions — and the
// reason is structural: neither package launches a goroutine at all.
// singleflight runs fn on the leader caller's goroutine and parks
// followers on a WaitGroup; serve does its work on net/http's request
// goroutines. This test keeps that finding-free state pinned; a future
// launch without a visible join path fails here with the exact spawn
// site.
func TestGoroutineLeakAudit(t *testing.T) {
	l := loaderFor(t)
	var pkgs []*Package
	for _, dir := range []string{"serve", "singleflight"} {
		pkg, err := l.LoadDir(filepath.Join("..", dir))
		if err != nil {
			t.Fatal(err)
		}
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("%s: type errors: %v", dir, pkg.TypeErrors)
		}
		pkgs = append(pkgs, pkg)
	}
	diags := Run(pkgs, []*Analyzer{GoroutineLeak})
	for _, d := range diags {
		t.Errorf("goroutine lifecycle audit regression: %s", d)
	}
}

// censusAllowed names the exported names kept without a production
// caller, each with the reason it stays; an entry without a reason allows
// nothing, and one that no longer names an uncalled name fails the census.
// A package path stands for every name it declares.
var censusAllowed = map[string]string{
	"repro/internal/npb/npbtest": "the shared test helpers of the npb packages; tests are its only callers",
	"npb.Rank.Scratch":           "test hook: the recycle tests NaN-poison a rank's scratch arrays through it",
	"npb.Stencil.Scratch":        "test hook: the recycle tests NaN-poison the stencil's scratch arrays through it",
	"cluster.Cluster.Breaker":    "test hook: drills drive a peer's breaker through Allow",
	"singleflight.Group.Waiters": "test hook: tests park N followers behind a leader before releasing it",
}

// TestExportedNameCensus holds every exported name of the module to a
// production caller: a use from some non-test file of the module, cmd/ and
// benchmark/ included. Exported methods of unexported types count too: a
// package's own files can call them, and one only its tests call belongs
// in those tests. A method that satisfies an interface (a named one
// from the module or anything it imports, or a literal one in the
// module's source) counts as used, and a use of an instantiated generic
// resolves to its origin. A name with neither a caller nor an entry in
// censusAllowed fails with its position: delete it, move it into the
// tests that use it, or allow-list it with its reason.
func TestExportedNameCensus(t *testing.T) {
	l := loaderFor(t)
	pkgs, err := l.LoadPatterns([]string{filepath.Join(l.Root, "...")})
	if err != nil {
		t.Fatal(err)
	}
	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	for _, it := range runtimeProtocols(t) {
		ifaces[it] = true
	}
	concrete := map[types.Type]bool{}
	seenPkg := map[*types.Package]bool{}
	var namedIfaces func(p *types.Package)
	namedIfaces = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			namedIfaces(imp)
		}
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s: type errors: %v", p.Path, p.TypeErrors)
		}
		namedIfaces(p.Types)
		for _, obj := range p.Info.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range p.Info.Types {
			addIface(tv.Type)
			if n, ok := tv.Type.(*types.Named); ok && n.TypeArgs().Len() > 0 {
				concrete[n] = true
			}
		}
	}
	// Every non-generic named type of the module, with the instantiations
	// seen above, is checked against every interface.
	var decls []types.Object
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			decls = append(decls, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := n.Underlying().(*types.Interface); isIface {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				decls = append(decls, n.Method(i))
			}
			if n.TypeParams().Len() == 0 {
				concrete[n] = true
			}
		}
	}
	for T := range concrete {
		for _, V := range []types.Type{T, types.NewPointer(T)} {
			for it := range ifaces {
				if !types.Implements(V, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(V, false, m.Pkg(), m.Name())
					if obj != nil {
						used[origin(obj)] = true
					}
				}
			}
		}
	}
	var findings []string
	allowUsed := map[string]bool{}
	for _, obj := range decls {
		if !obj.Exported() || used[obj] {
			continue
		}
		name := censusName(obj)
		if key := obj.Pkg().Path(); censusAllowed[key] != "" {
			allowUsed[key] = true
			continue
		}
		if censusAllowed[name] != "" {
			allowUsed[name] = true
			continue
		}
		findings = append(findings, fmt.Sprintf("%s: %s has no production caller", l.Fset.Position(obj.Pos()), name))
	}
	for key := range censusAllowed {
		if !allowUsed[key] {
			findings = append(findings, fmt.Sprintf("censusAllowed[%q]: names nothing without a production caller; drop the entry", key))
		}
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Error(f)
	}
}

// runtimeProtocols returns the error interface and the literal
// interfaces package errors asserts at run time: Is, As and Unwrap are
// called through them and nowhere else.
func runtimeProtocols(t *testing.T) []*types.Interface {
	const src = `package p
type (
	err    interface{ Error() string }
	is     interface{ Is(error) bool }
	as     interface{ As(any) bool }
	unwrap interface{ Unwrap() error }
	multi  interface{ Unwrap() []error }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "protocols.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []*types.Interface
	for _, name := range p.Scope().Names() {
		out = append(out, p.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return out
}

// origin maps a use of an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// censusName renders obj as pkg.Name, or pkg.Type.Method for a method.
func censusName(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if n, ok := rt.(*types.Named); ok {
				return obj.Pkg().Name() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}
