// Package apidiscipline flags a misuse of the simulator APIs that the
// type system cannot express: dropped ok/err results from Recv/Try*
// calls. bsp.Proc.Recv and TryRecv-style methods report in their last
// result whether a message actually arrived; calling them as a bare
// statement silently conflates "drained one message" with "inbox was
// empty", which corrupts h-relation accounting downstream.
package apidiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/kit"
)

// Analyzer is the apidiscipline check.
var Analyzer = &kit.Analyzer{
	Name: "apidiscipline",
	Doc:  "forbid dropped Recv/Try* ok results",
	Run:  run,
}

func run(pass *kit.Pass) {
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			if stmt, ok := n.(*ast.ExprStmt); ok {
				checkDroppedResult(pass, stmt)
			}
			return true
		})
	}
}

// checkDroppedResult flags `p.Recv()` / `mb.TryRecv()`-style calls used
// as bare statements when their last result is a bool or error.
func checkDroppedResult(pass *kit.Pass, stmt *ast.ExprStmt) {
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeFunc(pass, call)
	if fn == nil {
		return
	}
	name := fn.Name()
	if name != "Recv" && !strings.HasPrefix(name, "Try") {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() < 2 {
		return
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !isBoolOrError(last) {
		return
	}
	pass.Reportf(stmt.Pos(),
		"result of %s dropped: its trailing %s result says whether a message actually arrived; assign it and handle the empty case (or discard explicitly with _, _ =)", name, last)
}

// calleeFunc resolves the called function or method, or nil.
func calleeFunc(pass *kit.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.ObjectOf(id).(*types.Func)
	return fn
}

func isBoolOrError(t types.Type) bool {
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.Bool {
		return true
	}
	return t.String() == "error"
}
