// Package allocfree defines an analyzer for the //mes:allocfree comment
// directive. The project's hot paths carry allocation budgets enforced
// at runtime (TestKernelEventAllocsAmortizedZero,
// TestTransmissionAllocBudget, TestSessionAllocsSteadyStateZero); this
// analyzer catches the constructs that defeat those budgets at vet time,
// before a regression ever reaches a test run:
//
//   - function literals, which allocate a closure when they capture
//     (and defeat inlining either way);
//   - fmt calls — formatting is only acceptable on error paths the
//     budget never runs, marked with //lint:allow;
//   - implicit interface conversions of non-pointer-shaped values
//     (basics, strings, structs, slices), which box on the heap.
//
// Intentional cold-path constructs carry //lint:allow allocfree <reason>.
package allocfree

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"mes/internal/analysis/directive"
)

var Analyzer = &analysis.Analyzer{
	Name:     "allocfree",
	Doc:      "flag closures, fmt calls and interface boxing inside functions annotated //mes:allocfree",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ix := directive.NewIndex(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || directive.InTestFile(pass, fd.Pos()) {
			return
		}
		if _, ok := ix.Mes(fd, "allocfree"); !ok {
			return
		}
		w := &walker{pass: pass, ix: ix, sig: funcSignature(pass, fd)}
		ast.Inspect(fd.Body, w.visit)
	})
	return nil, nil
}

// walker traverses an annotated function body.
type walker struct {
	pass *analysis.Pass
	ix   *directive.Index
	sig  *types.Signature
}

func (w *walker) report(pos token.Pos, format string, args ...interface{}) {
	if !w.ix.Allowed(pos) {
		w.pass.Reportf(pos, format, args...)
	}
}

func (w *walker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		w.report(n.Pos(), "function literal in an allocfree function: closures capture and allocate; hoist it to a reused field or method value")
		return false // one report per literal; don't descend
	case *ast.CallExpr:
		w.call(n)
	case *ast.AssignStmt:
		w.assign(n)
	case *ast.ReturnStmt:
		w.returnStmt(n)
	case *ast.ValueSpec:
		w.valueSpec(n)
	}
	return true
}

// call checks fmt usage and argument boxing.
func (w *walker) call(call *ast.CallExpr) {
	if tv, ok := w.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, handled by the surrounding context checks
	}
	if fn := calleeFunc(w.pass, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		w.report(call.Pos(), "fmt.%s in an allocfree function: move it onto the error path", fn.Name())
		return
	}
	sig, ok := w.pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return // builtin
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // spread of an existing slice: no boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		w.convert(arg, pt)
	}
}

func (w *walker) assign(a *ast.AssignStmt) {
	if len(a.Lhs) != len(a.Rhs) {
		return // tuple assignment: RHS types flow through unchanged
	}
	for i, lhs := range a.Lhs {
		lt, ok := w.pass.TypesInfo.Types[lhs]
		if !ok {
			continue
		}
		w.convert(a.Rhs[i], lt.Type)
	}
}

func (w *walker) returnStmt(r *ast.ReturnStmt) {
	if w.sig == nil || r.Results == nil || len(r.Results) != w.sig.Results().Len() {
		return
	}
	for i, res := range r.Results {
		w.convert(res, w.sig.Results().At(i).Type())
	}
}

func (w *walker) valueSpec(vs *ast.ValueSpec) {
	if vs.Type == nil {
		return
	}
	tt, ok := w.pass.TypesInfo.Types[vs.Type]
	if !ok {
		return
	}
	for _, v := range vs.Values {
		w.convert(v, tt.Type)
	}
}

// convert reports arg if assigning it to target boxes a non-pointer-
// shaped value into an interface.
func (w *walker) convert(arg ast.Expr, target types.Type) {
	if target == nil {
		return
	}
	if _, isIface := target.Underlying().(*types.Interface); !isIface {
		return
	}
	tv, ok := w.pass.TypesInfo.Types[arg]
	if !ok || tv.Value != nil || tv.IsNil() {
		return // constants and nil convert without heap allocation
	}
	at := tv.Type
	if at == nil {
		return
	}
	switch at.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return // pointer-shaped: fits the interface word, no allocation
	case *types.Basic:
		if at.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return
		}
	}
	w.report(arg.Pos(), "implicit conversion of %s to %s boxes on the heap in an allocfree function", types.TypeString(at, types.RelativeTo(w.pass.Pkg)), types.TypeString(target, types.RelativeTo(w.pass.Pkg)))
}

func funcSignature(pass *analysis.Pass, fd *ast.FuncDecl) *types.Signature {
	if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		return obj.Type().(*types.Signature)
	}
	return nil
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
