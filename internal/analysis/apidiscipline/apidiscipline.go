// Package apidiscipline flags misuse of the simulator APIs that the
// type system cannot express:
//
//   - dropped ok/err results from Recv/Try* calls: bsp.Proc.Recv and
//     TryRecv-style methods report in their last result whether a
//     message actually arrived; calling them as a bare statement
//     silently conflates "drained one message" with "inbox was empty",
//     which corrupts h-relation accounting downstream;
//   - audit hooks attached after a machine run has already happened in
//     the same function: logp.EnableAudit feeds on events emitted
//     during Run, so enabling it afterwards yields a summary that
//     silently misses the runs before it.
package apidiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/kit"
)

// Analyzer is the apidiscipline check.
var Analyzer = &kit.Analyzer{
	Name: "apidiscipline",
	Doc: "forbid dropped Recv/Try* ok results and audit hooks attached " +
		"after Run",
	Run: run,
}

func run(pass *kit.Pass) {
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				checkDroppedResult(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkLateAudit(pass, n.Body)
				}
			case *ast.FuncLit:
				checkLateAudit(pass, n.Body)
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

// checkLateAudit flags logp.EnableAudit calls that appear after a
// machine Run call in the same function body.
func checkLateAudit(pass *kit.Pass, body *ast.BlockStmt) {
	var firstRun token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false // nested function bodies are checked separately
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if fn.Name() == "Run" && isEnginePkg(fn.Pkg().Path()) {
			if firstRun == token.NoPos || call.Pos() < firstRun {
				firstRun = call.Pos()
			}
			return true
		}
		if fn.Name() == "EnableAudit" && fn.Pkg().Path() == "repro/internal/logp" &&
			firstRun != token.NoPos && call.Pos() > firstRun {
			pass.Reportf(call.Pos(),
				"EnableAudit attached after a machine Run in this function: the audit hook only sees events emitted after it is enabled, so the earlier run is silently missing from the summary; enable auditing before the first Run")
		}
		return true
	})
}

func isEnginePkg(path string) bool {
	switch path {
	case "repro/internal/logp", "repro/internal/bsp", "repro/internal/core",
		"repro/internal/netrun":
		return true
	}
	return false
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
