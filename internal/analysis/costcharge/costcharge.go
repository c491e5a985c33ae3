// Package costcharge flags ad-hoc arithmetic on model parameters
// outside the engines' charging helpers.
//
// The LogP parameters (o, G, L) and the BSP parameters (g, ℓ) are not
// plain integers: every formula built from them encodes a clause of the
// cost model — G·h for the gap-bound service time, 2o + G(h−1) + L for
// a stall-free h-relation, w + g·h + ℓ for a superstep. When experiment
// or example code re-derives such formulas inline with int arithmetic,
// each call site becomes a place where the model can silently drift
// from the paper (an off-by-one in the (h−1), a forgotten overhead
// term), and the repository's measured-vs-predicted comparisons lose
// their meaning. The analyzer steers all cost math through the
// canonical helpers — logp.Params.{GapTime, HRelationTime, StallWindow,
// SubmitAt, Capacity} and bsp.SuperstepCost.Time — by flagging any
// +,-,*,/,% expression that touches a Params field directly. Engine
// packages, which define the charging functions, are exempt by scope;
// the rare legitimate inline formula (e.g. a dimensionless reference
// curve) carries a //lint:ignore costcharge directive with its reason.
package costcharge

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/kit"
)

// Analyzer is the costcharge check.
var Analyzer = &kit.Analyzer{
	Name: "costcharge",
	Doc: "forbid plain-int arithmetic on LogP/BSP model parameters " +
		"outside the engines' canonical charging helpers",
	Scope: []string{
		"repro/internal/bench", "repro/internal/bsputil",
		"repro/internal/relation", "repro/internal/sortnet",
		"repro/internal/topology", "repro/examples", "repro/cmd",
	},
	Run: run,
}

// paramFields lists, per Params type, the model-parameter fields whose
// arithmetic must go through charging helpers.
var paramFields = map[string]map[string]bool{
	"repro/internal/logp.Params": {"L": true, "O": true, "G": true},
	"repro/internal/bsp.Params":  {"L": true, "G": true},
}

func run(pass *kit.Pass) {
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || !isArith(be.Op) {
				return true
			}
			if field := paramField(pass, be); field != "" {
				pass.Reportf(be.Pos(),
					"arithmetic on model parameter %s outside the engine charging helpers: use the canonical cost functions (logp.Params.GapTime/HRelationTime/StallWindow/SubmitAt, bsp.SuperstepCost.Time) so every charge matches the paper's formulas", field)
				return false // one report per outermost offending expression
			}
			return true
		})
	}
}

func isArith(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
		return true
	}
	return false
}

// paramField returns a description of the first model-parameter field
// referenced anywhere inside e, or "".
func paramField(pass *kit.Pass, e ast.Expr) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		t := pass.TypeOf(sel.X)
		if t == nil {
			return true
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return true
		}
		fields := paramFields[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
		if fields != nil && fields[sel.Sel.Name] {
			found = named.Obj().Name() + "." + sel.Sel.Name
		}
		return true
	})
	return found
}
