// Package procshare flags per-processor program closures that mutate
// shared captured state instead of communicating through the engine.
//
// A logp.Program or bsp.Program is one function value that every
// simulated processor runs; anything the closure captures is therefore
// shared by all p processors. Every engine executes processors as
// coroutines of one sequential loop, so such sharing never trips the
// race detector — it "works", while silently bypassing the very
// accounting the simulators exist to charge: a value smuggled through
// a captured variable moves between processors for free, with no o,
// no g or gap, no capacity slot (Section 2 of the paper). The analyzer
// therefore flags writes, inside a program function, to variables
// captured from an enclosing scope (or to package-level variables),
// with one carve-out: stores indexed by the processor's own identity
// (p.ID() or a local derived from it), the canonical per-proc result
// slot pattern, are private by construction and allowed.
//
// The scripted form gets the same discipline. A logp.Script's
// Next(id, prev) runs for every processor on one script value, so its
// receiver fields and captures are shared exactly like a Program
// closure's — and the scale workloads deliberately keep all
// per-processor state in one shared arena of id-indexed slots. The
// carve-out therefore extends to any store whose index chain involves
// the id parameter or a local derived from it, including flat-offset
// addressing into a shared backing array (buf[id*h+k]): the slot is
// private to processor id by construction, so a shared arena written
// from proc programs is not a finding. Writes to shared state not
// reached through id — a receiver scalar, a fixed slot — are.
package procshare

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/kit"
)

// Analyzer is the procshare check.
var Analyzer = &kit.Analyzer{
	Name: "procshare",
	Doc: "forbid per-processor program closures from writing captured " +
		"shared state; communication must go through Send/Recv or " +
		"per-proc slots indexed by the processor id",
	Scope: []string{
		"repro/internal/bench", "repro/internal/bsputil",
		"repro/examples", "repro/cmd",
	},
	Run: run,
}

func run(pass *kit.Pass) {
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if param := procParam(pass, n.Type); param != nil {
					checkProgram(pass, n.Body, param, "program")
					return false // a program does not nest further programs
				}
				if param := scriptParam(pass, n.Type); param != nil {
					checkProgram(pass, n.Body, param, "script")
					return false
				}
			case *ast.FuncDecl:
				if param := procParam(pass, n.Type); param != nil && n.Body != nil {
					checkProgram(pass, n.Body, param, "program")
					return false
				}
				if param := scriptParam(pass, n.Type); param != nil && n.Body != nil {
					checkProgram(pass, n.Body, param, "script")
					return false
				}
			}
			return true
		})
	}
}

// procParam returns the object of ft's single parameter when that
// parameter is one of the engines' Proc interfaces — the signature
// shared by logp.Program, bsp.Program, and the core/netrun program
// arguments — and nil otherwise.
func procParam(pass *kit.Pass, ft *ast.FuncType) types.Object {
	if ft.Params == nil || len(ft.Params.List) != 1 || ft.Results != nil {
		return nil
	}
	field := ft.Params.List[0]
	if len(field.Names) != 1 {
		return nil
	}
	t := pass.TypeOf(field.Type)
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Name() != "Proc" || obj.Pkg() == nil {
		return nil
	}
	switch obj.Pkg().Path() {
	case "repro/internal/logp", "repro/internal/bsp":
		return pass.ObjectOf(field.Names[0])
	}
	return nil
}

// scriptParam returns the object of ft's id parameter when ft has the
// Script.Next shape — (id int, prev logp.ScriptResult) logp.ScriptOp —
// and nil otherwise. The id parameter plays the role p.ID() plays in
// the coroutine form: the processor identity the per-proc slot
// carve-out keys on.
func scriptParam(pass *kit.Pass, ft *ast.FuncType) types.Object {
	if ft.Params == nil || len(ft.Params.List) != 2 ||
		ft.Results == nil || len(ft.Results.List) != 1 {
		return nil
	}
	id, prev := ft.Params.List[0], ft.Params.List[1]
	if len(id.Names) != 1 || len(prev.Names) != 1 {
		return nil
	}
	if b, ok := pass.TypeOf(id.Type).(*types.Basic); !ok || b.Kind() != types.Int {
		return nil
	}
	if !logpNamed(pass.TypeOf(prev.Type), "ScriptResult") ||
		!logpNamed(pass.TypeOf(ft.Results.List[0].Type), "ScriptOp") {
		return nil
	}
	return pass.ObjectOf(id.Names[0])
}

// logpNamed reports whether t is the named logp type of that name.
func logpNamed(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "repro/internal/logp"
}

// checkProgram reports writes to captured or global mutable state from
// a program (or script) body. form is "program" or "script" and only
// changes the diagnostic wording: a script's shared state is typically
// its receiver rather than a closure capture.
func checkProgram(pass *kit.Pass, body *ast.BlockStmt, param types.Object, form string) {
	local := func(obj types.Object) bool {
		return obj.Pos() >= body.Lbrace && obj.Pos() <= body.Rbrace
	}
	tainted := procDerived(pass, body, param)

	// mentionsProcIdentity reports whether e syntactically involves the
	// Proc parameter or a local derived from it.
	mentionsProcIdentity := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.ObjectOf(id); obj != nil && (obj == param || tainted[obj]) {
					found = true
				}
			}
			return !found
		})
		return found
	}

	check := func(lhs ast.Expr) {
		base, procIndexed := storeBase(lhs, mentionsProcIdentity)
		if base == nil {
			return
		}
		obj := pass.ObjectOf(base)
		v, ok := obj.(*types.Var)
		if !ok || local(v) || obj == param || v.IsField() {
			return
		}
		if form == "script" && logpNamed(v.Type(), "ScriptResult") {
			// prev is a value parameter: writes land in this call's
			// private copy, nothing is shared.
			return
		}
		if procIndexed {
			return // per-proc slot: out[p.ID()] = v, or s.slots[id] = v
		}
		where := "captured"
		switch {
		case v.Parent() == v.Pkg().Scope():
			where = "package-level"
		case form == "script" && v.Pos() < body.Lbrace:
			// A script's shared state arrives through its receiver (or
			// another parameter), not a closure capture.
			where = "receiver-reachable"
		}
		pass.Reportf(lhs.Pos(),
			"%s writes %s variable %s shared by all processors: move data with Send/Recv (so it is charged o, the gap, and a capacity slot) or store into a per-proc slot indexed by the processor id", form, where, v.Name())
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(n.X)
		}
		return true
	})
}

// storeBase peels an assignment target down to its base identifier,
// reporting whether any indexing step along the way involves the
// processor's identity.
func storeBase(lhs ast.Expr, procIdentity func(ast.Expr) bool) (*ast.Ident, bool) {
	procIndexed := false
	for {
		switch e := lhs.(type) {
		case *ast.Ident:
			return e, procIndexed
		case *ast.IndexExpr:
			if procIdentity(e.Index) {
				procIndexed = true
			}
			lhs = e.X
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		default:
			return nil, false
		}
	}
}

// procDerived computes the body-local variables whose value derives
// from the Proc parameter (id := p.ID(); me := id; ...), by iterating
// simple assignments to a fixed point.
func procDerived(pass *kit.Pass, body *ast.BlockStmt, param types.Object) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	mentions := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.ObjectOf(id); obj != nil && (obj == param || tainted[obj]) {
					found = true
				}
			}
			return !found
		})
		return found
	}
	for {
		grew := false
		ast.Inspect(body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for i, lhs := range assign.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.ObjectOf(id)
				if obj == nil || tainted[obj] {
					continue
				}
				if mentions(assign.Rhs[i]) {
					tainted[obj] = true
					grew = true
				}
			}
			return true
		})
		if !grew {
			return tainted
		}
	}
}
