// Package hotloop flags allocation-adjacent hazards inside loops of the
// //hot:path hot set that the compiler's escape analysis will not
// report (or reports at positions no reader associates with the loop):
//
//   - append into a slice inside a hot loop: the arena discipline
//     pre-sizes every steady-state buffer, so an append that can grow
//     is either a missing pre-size or an amortized-growth decision that
//     deserves an explicit //lint:ignore reason;
//   - fmt calls and string concatenation inside a hot loop: each
//     formats or concatenates per event (panic messages are exempt —
//     a panic ends the simulation).
//
// The analyzer is purely syntactic over the hot set (package hotset):
// where allocdiscipline trusts `-gcflags=-m`, hotloop encodes the
// repository's own hot-loop conventions.
package hotloop

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/hotset"
	"repro/internal/analysis/kit"
)

// Analyzer is the hotloop check.
var Analyzer = &kit.Analyzer{
	Name: "hotloop",
	Doc: "forbid append-without-presize and fmt/string concatenation " +
		"inside loops of the //hot:path hot set",
	Scope: []string{
		"repro/internal/logp", "repro/internal/core",
		"repro/internal/runq", "repro/internal/netsim",
		"repro/internal/relation", "repro/internal/bench",
		"repro/internal/stats",
	},
	Run: run,
}

func run(pass *kit.Pass) {
	set := hotset.Compute(pass)
	for _, hf := range set.Funcs() {
		checkLoops(pass, set, hf)
	}
}

// checkLoops inspects every loop body of one hot function.
func checkLoops(pass *kit.Pass, set *hotset.Set, hf hotset.HotFunc) {
	ast.Inspect(hf.Decl.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		default:
			return true
		}
		if body == nil {
			return true
		}
		// A chain a + b + c parses as (a + b) + c: the inner + is part
		// of the concatenation already reported, not another one.
		inChain := map[*ast.BinaryExpr]bool{}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, set, hf, n)
			case *ast.BinaryExpr:
				if isConcat(pass, n) && !inChain[n] && !set.InPanicArg(n.Pos()) {
					pass.Reportf(n.Pos(),
						"string concatenation in a loop of hot function %s: allocates per iteration", hf.Name)
					markChain(pass, n, inChain)
				}
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass.TypeOf(n.Lhs[0])) {
					pass.Reportf(n.Pos(),
						"string concatenation in a loop of hot function %s: allocates per iteration", hf.Name)
				}
			}
			return true
		})
		return false // the inner Inspect covered nested loops too
	})
}

// checkCall flags append (growth in a hot loop) and fmt.* calls.
func checkCall(pass *kit.Pass, set *hotset.Set, hf hotset.HotFunc, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := pass.ObjectOf(fun).(*types.Builtin); ok && b.Name() == "append" {
			pass.Reportf(call.Pos(),
				"append in a loop of hot function %s: pre-size the buffer (arena discipline) or annotate the amortized growth", hf.Name)
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := pass.ObjectOf(id).(*types.PkgName); ok &&
				pn.Imported().Path() == "fmt" && !set.InPanicArg(call.Pos()) {
				pass.Reportf(call.Pos(),
					"fmt.%s in a loop of hot function %s: formats (and allocates) per iteration", fun.Sel.Name, hf.Name)
			}
		}
	}
}

// isConcat reports whether e is a string concatenation.
func isConcat(pass *kit.Pass, e *ast.BinaryExpr) bool {
	return e.Op == token.ADD && isString(pass.TypeOf(e.X))
}

// markChain records the concatenations among e's operands, through
// parentheses, as parts of e.
func markChain(pass *kit.Pass, e *ast.BinaryExpr, inChain map[*ast.BinaryExpr]bool) {
	for _, x := range []ast.Expr{e.X, e.Y} {
		if b, ok := ast.Unparen(x).(*ast.BinaryExpr); ok && isConcat(pass, b) {
			inChain[b] = true
			markChain(pass, b, inChain)
		}
	}
}

// isString reports whether t is a string type.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
