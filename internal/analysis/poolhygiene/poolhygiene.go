// Package poolhygiene defines a CFG-based analyzer for the project's
// pooled-resource discipline. Machines, sessions and retired kernel
// objects are recycled through explicit pools (runner.Pool,
// core.SessionCache, the kobj/vfs retire lists), and the batched-trial
// perf work only holds together if every acquire is paired with its
// release on every path: a System that is never Released pins its
// Kernel's event arena, a Session that is never Closed leaks its
// machines back into no pool at all.
//
// The analyzer tracks four acquire shapes —
//
//	v, ok := pool.Get()          // runner.Pool
//	v := osmodel.NewSystem(cfg)  // release with v.Release() / v.Detach()
//	v, err := core.NewSession(c) // release with v.Close()
//	v, ok := ns.TakeRetired(t)   // re-home with Insert(v) / Put(v)
//
// — and walks the enclosing function's control-flow graph: a path that
// returns without releasing v, storing it, returning it, or capturing
// it in a closure is reported at the acquire site and at the leaking
// return. The error result of a (v, err) acquire prunes its failure
// paths: `return ..., err` is not a leak. Deliberate ownership
// transfers the analyzer cannot see carry //lint:allow poolhygiene
// <reason>.
//
// The traversal is modeled on x/tools' lostcancel pass, but with
// inverted semantics: lostcancel prunes on any use, while a pooled
// value must be explicitly released — merely using the machine is what
// every leak does.
package poolhygiene

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"mes/internal/analysis/directive"
)

var Analyzer = &analysis.Analyzer{
	Name:     "poolhygiene",
	Doc:      "check that pooled acquires (Pool.Get, NewSystem, NewSession, TakeRetired) are released on every control-flow path",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

// releaseMethods are methods that, called on the tracked value, return
// it to its pool or tear it down.
var releaseMethods = map[string]bool{
	"Release": true, "Close": true, "Detach": true, "release": true,
}

// releaseFuncs are callees that take ownership of the tracked value
// when it appears among their arguments.
var releaseFuncs = map[string]bool{
	"Put": true, "Insert": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ix := directive.NewIndex(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		if !directive.InTestFile(pass, n.Pos()) {
			runFunc(pass, ix, n)
		}
	})
	return nil, nil
}

// acquire is one tracked acquisition site inside a function.
type acquire struct {
	stmt *ast.AssignStmt
	v    *types.Var   // the acquired value
	err  types.Object // error companion of (v, err :=) forms, else nil
	what string       // noun for diagnostics
	hint string       // suggested release call
	// okGate is the enclosing `if v, ok := acquire(); ok { ... }`
	// statement when the acquire is its init gated on its own ok: only
	// the then-branch holds the resource, so the leak search starts
	// there instead of at the acquire.
	okGate *ast.IfStmt
}

func runFunc(pass *analysis.Pass, ix *directive.Index, node ast.Node) {
	var body *ast.BlockStmt
	switch n := node.(type) {
	case *ast.FuncDecl:
		body = n.Body
	case *ast.FuncLit:
		body = n.Body
	}
	if body == nil {
		return
	}

	// Collect acquires in this function, excluding nested literals —
	// the inspector visits those as their own functions.
	var acquires []*acquire
	seen := make(map[*ast.AssignStmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IfStmt:
			// `if v, ok := acquire(); ok { ... }` — the resource exists
			// only in the then-branch.
			asg, ok := n.Init.(*ast.AssignStmt)
			if !ok || seen[asg] {
				break
			}
			if a := classify(pass, asg); a != nil {
				seen[asg] = true
				if condIsOK(pass, n.Cond, asg) {
					a.okGate = n
				}
				if !ix.Allowed(asg.Pos()) {
					acquires = append(acquires, a)
				}
			}
		case *ast.AssignStmt:
			if seen[n] {
				break
			}
			if a := classify(pass, n); a != nil && !ix.Allowed(n.Pos()) {
				seen[n] = true
				acquires = append(acquires, a)
			}
		}
		return true
	})
	if len(acquires) == 0 {
		return
	}

	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	var g *cfg.CFG
	switch n := node.(type) {
	case *ast.FuncDecl:
		g = cfgs.FuncDecl(n)
	case *ast.FuncLit:
		g = cfgs.FuncLit(n)
	}
	if g == nil {
		return
	}

	for _, a := range acquires {
		if ret := leakyReturn(pass, g, a); ret != nil {
			pass.Reportf(a.stmt.Pos(), "%s acquired here is not released on every path: pair it with %s (or //lint:allow poolhygiene <reason> for a deliberate ownership transfer)", a.what, a.hint)
			pass.Reportf(ret.Pos(), "this return may leak the %s acquired at line %d", a.what, pass.Fset.Position(a.stmt.Pos()).Line)
		}
	}
}

// classify recognizes the acquire shapes. Returns nil for ordinary
// assignments.
func classify(pass *analysis.Pass, asg *ast.AssignStmt) *acquire {
	if len(asg.Rhs) != 1 {
		return nil
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	var what, hint string
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Get":
			if namedTypeName(pass.TypesInfo.Types[fun.X].Type) != "Pool" {
				return nil // Namespace.Get, HandleTable.Get etc. are lookups
			}
			what, hint = "pooled value", "Pool.Put"
		case "TakeRetired":
			what, hint = "retired object", "Insert (or Put)"
		case "NewSystem":
			what, hint = "machine", "System.Release (or Detach)"
		case "NewSession":
			what, hint = "session", "Session.Close"
		default:
			return nil
		}
	case *ast.Ident:
		switch fun.Name {
		case "NewSystem":
			what, hint = "machine", "System.Release (or Detach)"
		case "NewSession":
			what, hint = "session", "Session.Close"
		default:
			return nil
		}
	default:
		return nil
	}
	id, ok := asg.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok {
		return nil
	}
	a := &acquire{stmt: asg, v: v, what: what, hint: hint}
	if len(asg.Lhs) == 2 {
		if eid, ok := asg.Lhs[1].(*ast.Ident); ok && eid.Name != "_" {
			if obj := pass.TypesInfo.ObjectOf(eid); obj != nil && isErrorType(obj.Type()) {
				a.err = obj
			}
		}
	}
	return a
}

// leakyReturn walks the CFG from the acquire's block and returns a
// return statement reachable without the value being released, stored,
// returned or captured — or nil if every path is clean.
func leakyReturn(pass *analysis.Pass, g *cfg.CFG, a *acquire) *ast.ReturnStmt {
	// Locate the block and node index the search starts from: the
	// acquire's own block, or — for an ok-gated acquire — the start of
	// the then-branch, the only path that holds the resource.
	var defBlock *cfg.Block
	defIdx := -1
	if a.okGate != nil {
		for _, b := range g.Blocks {
			if b.Kind == cfg.KindIfThen && b.Stmt == a.okGate {
				defBlock = b
				break
			}
		}
	} else {
		for _, b := range g.Blocks {
			for i, n := range b.Nodes {
				if n == a.stmt {
					defBlock, defIdx = b, i
					break
				}
			}
			if defBlock != nil {
				break
			}
		}
	}
	if defBlock == nil {
		return nil // dead code: the acquire never executes
	}

	visited := make(map[*cfg.Block]bool)
	var leak *ast.ReturnStmt

	// scan processes one block's nodes starting at from; reports
	// whether the path is settled (released/escaped) inside it.
	scan := func(b *cfg.Block, from int) bool {
		for _, n := range b.Nodes[from:] {
			if settles(pass, n, a) {
				return true
			}
		}
		if ret := b.Return(); ret != nil && leak == nil {
			leak = ret
		}
		return false
	}

	var dfs func(b *cfg.Block)
	dfs = func(b *cfg.Block) {
		if visited[b] {
			return
		}
		visited[b] = true
		if scan(b, 0) {
			return
		}
		for _, succ := range b.Succs {
			dfs(succ)
		}
	}

	if scan(defBlock, defIdx+1) {
		return nil
	}
	for _, succ := range defBlock.Succs {
		dfs(succ)
	}
	return leak
}

// settles reports whether node n releases the acquired value or takes
// over its ownership in a way the analyzer stops tracking: an explicit
// release call, a store, a return of the value, a closure capture, an
// address-taken alias, or (for fallible acquires) a return carrying the
// acquire's error.
func settles(pass *analysis.Pass, node ast.Node, a *acquire) bool {
	settled := false
	ast.Inspect(node, func(x ast.Node) bool {
		if settled {
			return false
		}
		switch x := x.(type) {
		case *ast.CallExpr:
			if isRelease(pass, x, a.v) {
				settled = true
				return false
			}
		case *ast.ReturnStmt:
			if uses(pass, x, a.v) || (a.err != nil && uses(pass, x, a.err)) {
				settled = true
				return false
			}
		case *ast.AssignStmt:
			if x == a.stmt {
				return true
			}
			for _, r := range x.Rhs {
				if uses(pass, r, a.v) {
					settled = true // stored somewhere longer-lived
					return false
				}
			}
		case *ast.FuncLit:
			settled = uses(pass, x, a.v) // captured by the closure
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND && isIdentOf(pass, x.X, a.v) {
				settled = true
				return false
			}
		}
		return true
	})
	return settled
}

// isRelease matches v.Release()/v.Close()/v.Detach()/v.release() and
// Put(..., v, ...)/Insert(..., v, ...) — including under defer.
func isRelease(pass *analysis.Pass, call *ast.CallExpr, v *types.Var) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if releaseMethods[sel.Sel.Name] && isIdentOf(pass, sel.X, v) {
			return true
		}
		if releaseFuncs[sel.Sel.Name] {
			for _, arg := range call.Args {
				if isIdentOf(pass, arg, v) {
					return true
				}
			}
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok && releaseFuncs[id.Name] {
		for _, arg := range call.Args {
			if isIdentOf(pass, arg, v) {
				return true
			}
		}
	}
	return false
}

// condIsOK reports whether cond is exactly the boolean companion
// variable of the acquire assignment (`if v, ok := ...; ok`).
func condIsOK(pass *analysis.Pass, cond ast.Expr, asg *ast.AssignStmt) bool {
	if len(asg.Lhs) != 2 {
		return false
	}
	okIdent, ok := asg.Lhs[1].(*ast.Ident)
	if !ok || okIdent.Name == "_" {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(okIdent)
	if obj == nil {
		return false
	}
	if b, ok := obj.Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Bool {
		return false
	}
	return isIdentOf(pass, cond, obj)
}

func isIdentOf(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	id, ok := e.(*ast.Ident)
	return ok && pass.TypesInfo.ObjectOf(id) == obj
}

// uses reports whether the subtree mentions obj.
func uses(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// namedTypeName resolves the defined-type name behind pointers, or "".
func namedTypeName(t types.Type) string {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func isErrorType(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
}
