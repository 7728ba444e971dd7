package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// mpiPkgPath is the simulated-MPI runtime every kernel communicates
// through. The analyzer inspects clients of this package, not the package
// itself: the runtime legitimately implements collectives out of
// rank-conditional point-to-point exchanges.
const mpiPkgPath = "repro/internal/mpi"

// collectiveMethods are the mpi.Comm operations every rank of the
// communicator must reach together.
var collectiveMethods = map[string]bool{
	"Barrier": true, "Bcast": true, "Allreduce": true,
	"AllreduceScalar": true, "Alltoall": true, "Split": true,
}

// rankMethods are the mpi.Comm / mpi.Cart accessors whose value differs
// per rank; control flow branching on them is rank-dependent.
var rankMethods = map[string]bool{
	"Rank": true, "WorldRank": true, "Coords": true, "CoordsOf": true,
}

// MPISafety flags the canonical simulated-MPI deadlock shapes:
//
//   - a collective call lexically inside a conditional (or loop) whose
//     condition depends on the caller's rank — some ranks reach the
//     collective, others do not, and every reaching rank blocks forever;
//   - point-to-point traffic whose constant tags cannot pair up within the
//     package (a tag that is sent but never received, or received but never
//     sent);
//   - user point-to-point calls with negative constant tags, which collide
//     with the runtime's reserved internal tag space and panic at runtime.
var MPISafety = &Analyzer{
	Name: "mpisafety",
	Doc:  "collectives under rank-dependent control flow, unpairable (peer,tag) traffic, reserved tags",
	Applies: func(path string) bool {
		return path != mpiPkgPath && !strings.HasPrefix(path, mpiPkgPath+"/")
	},
	Run: runMPISafety,
}

func runMPISafety(pass *Pass) {
	census := newTagCensus()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRankConditionals(pass, fd)
			census.collect(pass, fd)
		}
	}
	census.report(pass)
}

// ---- collective-inside-rank-conditional ----

// checkRankConditionals walks one function, tracking the conditional
// nesting and which conditions are rank-dependent, and reports collective
// calls reached only under a rank-dependent condition.
func checkRankConditionals(pass *Pass, fd *ast.FuncDecl) {
	rankVars := rankDerivedVars(pass, fd)

	// depth counts enclosing conditionals whose condition is
	// rank-dependent. ast.Inspect reports subtree exit as f(nil), so an
	// explicit node stack pairs each exit with the node being left;
	// pushes and saved record what that node contributed.
	depth := 0
	var stack []ast.Node
	pushes := map[ast.Node]int{}
	saved := map[ast.Node]int{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			depth -= pushes[top]
			delete(pushes, top)
			if d, ok := saved[top]; ok {
				depth = d
				delete(saved, top)
			}
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.IfStmt:
			if exprIsRankDependent(pass, n.Cond, rankVars) {
				// The else branch of a rank test is just as
				// rank-dependent as the then branch; the whole IfStmt
				// subtree is covered by one push.
				depth++
				pushes[n] = 1
			}
		case *ast.SwitchStmt:
			if n.Tag != nil && exprIsRankDependent(pass, n.Tag, rankVars) {
				depth++
				pushes[n] = 1
			}
		case *ast.ForStmt:
			if n.Cond != nil && exprIsRankDependent(pass, n.Cond, rankVars) {
				depth++
				pushes[n] = 1
			}
		case *ast.FuncLit:
			// A literal may run on a different goroutine or not at all;
			// analyze its body independently of the enclosing nesting.
			saved[n] = depth
			depth = 0
		case *ast.CallExpr:
			if depth > 0 {
				if name, ok := commCollective(pass, n); ok {
					pass.Reportf(n.Pos(), "collective %s inside rank-dependent control flow: ranks that skip the branch never join it (deadlock)", name)
				}
			}
		}
		return true
	})
}

// rankDerivedVars collects the objects of variables assigned from a
// rank-valued call anywhere in the function, e.g. `rank := c.Rank()` or
// `_, my := c.Rank(), c.WorldRank()`.
func rankDerivedVars(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	vars := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isRankCall(pass, call) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pass.Info.ObjectOf(id); obj != nil {
					vars[obj] = true
				}
			}
		}
		return true
	})
	return vars
}

// isRankCall reports whether call invokes a rank accessor of the mpi
// package (Comm.Rank, Comm.WorldRank, Cart.Coords, ...).
func isRankCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Info, call)
	return fnFromPkg(fn, mpiPkgPath) && rankMethods[fn.Name()]
}

// exprIsRankDependent reports whether the expression mentions a rank
// accessor call or a variable derived from one.
func exprIsRankDependent(pass *Pass, e ast.Expr, rankVars map[types.Object]bool) bool {
	dep := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isRankCall(pass, n) {
				dep = true
			}
		case *ast.Ident:
			if obj := pass.Info.ObjectOf(n); obj != nil && rankVars[obj] {
				dep = true
			}
		}
		return !dep
	})
	return dep
}

// commCollective reports whether call is a collective method on mpi.Comm,
// returning the method name.
func commCollective(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass.Info, call)
	if !fnFromPkg(fn, mpiPkgPath) || recvNamed(fn) != "Comm" || !collectiveMethods[fn.Name()] {
		return "", false
	}
	return fn.Name(), true
}

// ---- (peer, tag) pairing census ----

// tagSite is one point-to-point call site with a constant tag.
type tagSite struct {
	pos token.Pos
	tag int64
}

// tagCensus accumulates, per package, every constant tag observed on the
// send and receive sides. The check is deliberately package-scoped: every
// protocol in this module pairs its tags within one package, and a
// cross-package protocol can record a kcvet:ignore with its pairing
// rationale.
type tagCensus struct {
	sends    []tagSite
	recvs    []tagSite
	sendTags map[int64]bool
	recvTags map[int64]bool
}

func newTagCensus() *tagCensus {
	return &tagCensus{sendTags: map[int64]bool{}, recvTags: map[int64]bool{}}
}

// p2pTagArg is the index of the tag argument of mpi.Comm's Send and Recv.
const p2pTagArg = 1

func (tc *tagCensus) collect(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if !fnFromPkg(fn, mpiPkgPath) || recvNamed(fn) != "Comm" {
			return true
		}
		switch fn.Name() {
		case "Send":
			tc.addSite(pass, call, p2pTagArg, true)
		case "Recv":
			tc.addSite(pass, call, p2pTagArg, false)
		}
		return true
	})
}

func (tc *tagCensus) addSite(pass *Pass, call *ast.CallExpr, argIdx int, send bool) {
	if argIdx >= len(call.Args) {
		return
	}
	arg := call.Args[argIdx]
	tag, constant := intConstOf(pass.Info, arg)
	if !constant {
		return // dynamic tags are beyond a lexical census
	}
	if tag < 0 {
		dir := "receive"
		if send {
			dir = "send"
		}
		pass.Reportf(arg.Pos(), "negative tag %d in %s: tags below 0 are reserved for the runtime's collectives and panic at runtime", tag, dir)
		return
	}
	site := tagSite{pos: arg.Pos(), tag: tag}
	if send {
		tc.sends = append(tc.sends, site)
		tc.sendTags[tag] = true
	} else {
		tc.recvs = append(tc.recvs, site)
		tc.recvTags[tag] = true
	}
}

func (tc *tagCensus) report(pass *Pass) {
	sites := make([]tagSite, 0, len(tc.sends)+len(tc.recvs))
	kind := map[token.Pos]string{}
	for _, s := range tc.sends {
		if !tc.recvTags[s.tag] {
			sites = append(sites, s)
			kind[s.pos] = "sent but never received"
		}
	}
	for _, s := range tc.recvs {
		if !tc.sendTags[s.tag] {
			sites = append(sites, s)
			kind[s.pos] = "received but never sent"
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	for _, s := range sites {
		pass.Reportf(s.pos, "tag %d is %s in this package: the (peer, tag) pair cannot match and the blocking side deadlocks", s.tag, kind[s.pos])
	}
}
