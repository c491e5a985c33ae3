// Package determinism flags sources of run-to-run nondeterminism in the
// simulator, router, and experiment packages.
//
// The repository's claim is that a run is bit-reproducible from its
// seed: measured times are compared against the paper's predicted
// BSP/LogP costs, goldens are diffed byte-for-byte, and the trace
// Auditor replays emission order. Three constructs silently break that:
//
//   - time.Now / time.Since: wall-clock time leaking into simulation
//     code (simulated instants must come from the engine clock);
//   - math/rand (v1 or v2) package-level state: unseeded and
//     process-global, where all randomness must flow through the
//     machine's seeded stats.RNG;
//   - ranging over a map on a path that emits trace events, sends
//     messages, or accumulates costs: map iteration order is
//     unspecified, so the emitted order differs between runs.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/kit"
)

// Analyzer is the determinism check.
var Analyzer = &kit.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand, and map-order-dependent " +
		"emission in simulation code",
	Scope: []string{
		"repro/internal/logp", "repro/internal/bsp", "repro/internal/core",
		"repro/internal/netsim", "repro/internal/netrun",
		"repro/internal/collective", "repro/internal/bench", "repro/internal/bsputil",
		"repro/internal/relation", "repro/internal/sortnet", "repro/internal/topology",
		"repro/internal/stats", "repro/examples",
	},
	Run: run,
}

// sinkNames are callee names treated as order-sensitive when reached
// from inside a map iteration: trace emission, message submission, cost
// accounting, and ordered accumulation.
var sinkNames = map[string]bool{
	"Emit": true, "emit": true, "Send": true, "SendBody": true, "SendFrom": true,
	"Inject": true, "Record": true, "AddRow": true, "Push": true,
	"Charge": true, "Observe": true, "append": true,
	"Write": true, "WriteString": true, "Print": true, "Printf": true,
	"Println": true, "Fprintf": true, "Fprintln": true,
}

func run(pass *kit.Pass) {
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name, ok := pkgFunc(pass, n, "time"); ok && (name == "Now" || name == "Since") {
					pass.Reportf(n.Pos(),
						"wall-clock time.%s in simulation code: simulated instants must come from the engine clock (Proc.Now / Result times)", name)
				}
			case *ast.SelectorExpr:
				if obj := pass.ObjectOf(n.Sel); obj != nil && obj.Pkg() != nil {
					if p := obj.Pkg().Path(); p == "math/rand" || p == "math/rand/v2" {
						pass.Reportf(n.Pos(),
							"%s.%s is process-global and unseeded: all randomness must flow through the machine's seeded stats.RNG", p, n.Sel.Name)
					}
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
}

// checkMapRange reports a range over a map whose body reaches an
// order-sensitive sink.
func checkMapRange(pass *kit.Pass, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	// The canonical fix — collecting the keys (or values) for sorting —
	// must itself stay clean, so an append whose appended arguments are
	// exactly the range variables is benign.
	rangeVar := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.ObjectOf(id); obj != nil {
				rangeVar[obj] = true
			}
		}
	}
	benignAppend := func(call *ast.CallExpr) bool {
		if len(call.Args) < 2 {
			return false
		}
		for _, arg := range call.Args[1:] {
			id, ok := arg.(*ast.Ident)
			if !ok || !rangeVar[pass.ObjectOf(id)] {
				return false
			}
		}
		return true
	}

	var sink string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if name := calleeName(n); sinkNames[name] {
				if name == "append" && benignAppend(n) {
					break
				}
				sink = name + "()"
			}
		case *ast.SendStmt:
			sink = "a channel send"
		case *ast.AssignStmt:
			// Compound float accumulation is order-dependent because
			// floating-point addition is not associative.
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE && len(n.Lhs) == 1 {
				if bt, ok := pass.TypeOf(n.Lhs[0]).(*types.Basic); ok && bt.Info()&types.IsFloat != 0 {
					sink = "float accumulation"
				}
			}
		}
		return true
	})
	if sink != "" {
		pass.Reportf(rng.Pos(),
			"map iteration order is unspecified but this loop feeds %s: collect and sort the keys first so emission and cost accounting stay deterministic", sink)
	}
}

// pkgFunc reports whether call invokes a package-level function of the
// package with the given import path, returning the function name.
func pkgFunc(pass *kit.Pass, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := pass.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return "", false
	}
	if _, ok := obj.(*types.Func); !ok {
		return "", false
	}
	return sel.Sel.Name, true
}

// calleeName returns the bare name of the called function or method.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
