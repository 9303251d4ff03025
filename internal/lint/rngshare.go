package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RNGShare returns the analyzer that enforces PR 2's pre-split RNG
// discipline: a *stats.RNG may only cross into a goroutine — a `go`
// statement or a par.Group Go/GoCtx task closure — if it was obtained from a
// Split call in the same function. Sharing one generator across
// concurrently running chains makes the draw sequence depend on
// scheduling (and races on the generator state), destroying the
// bit-identical-at-any-worker-count guarantee.
func RNGShare() *Analyzer {
	a := &Analyzer{
		Name: "rngshare",
		Doc:  "forbid sharing a *stats.RNG with a goroutine unless it came from Split in the same function",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			inspectWithStack(f, func(n ast.Node, stack []ast.Node) {
				switch n := n.(type) {
				case *ast.GoStmt:
					if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
						checkCapturedRNGs(pass, lit, stack, n.Pos(), "go statement")
						return
					}
					for _, arg := range n.Call.Args {
						checkRNGExpr(pass, arg, stack, n.Pos(), "go statement")
					}
				case *ast.CallExpr:
					// A function literal handed to (*par.Group).Go or GoCtx
					// runs as a pool task.
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Go" && sel.Sel.Name != "GoCtx" || len(n.Args) == 0 || !isNamed(pass.Pkg.Info.TypeOf(sel.X), "internal/par", "Group") {
						return
					}
					if lit, ok := n.Args[0].(*ast.FuncLit); ok {
						checkCapturedRNGs(pass, lit, stack, n.Pos(), "par.Group task")
					}
				}
			})
		}
	}
	return a
}

// checkCapturedRNGs reports every free *stats.RNG variable of lit — a
// variable declared outside the literal but used inside it — that is not
// Split-derived at the point the goroutine is launched.
func checkCapturedRNGs(pass *Pass, lit *ast.FuncLit, stack []ast.Node, at token.Pos, context string) {
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Pkg.Info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() || !isNamed(v.Type(), "internal/stats", "RNG") {
			return true // fields ride in by value inside their struct
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the closure: not shared
		}
		seen[v] = true
		if !splitDerivedAt(pass, stack, v, at) {
			pass.Reportf(id.Pos(), "%s captures *stats.RNG %q, which is not obtained from Split in this function: sharing a generator across goroutines races and breaks deterministic replay (pre-split one stream per task)", context, v.Name())
		}
		return true
	})
}

// checkRNGExpr reports e when it is a non-Split-derived *stats.RNG handed
// to a goroutine as a call argument.
func checkRNGExpr(pass *Pass, e ast.Expr, stack []ast.Node, at token.Pos, context string) {
	if !isNamed(pass.Pkg.Info.TypeOf(e), "internal/stats", "RNG") {
		return
	}
	// rng.Split() passed directly is the blessed pattern.
	if isSplitCall(pass, e) {
		return
	}
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := pass.Pkg.Info.Uses[id].(*types.Var); ok && splitDerivedAt(pass, stack, v, at) {
			return
		}
	}
	pass.Reportf(e.Pos(), "%s receives a *stats.RNG that is not obtained from Split in this function: sharing a generator across goroutines races and breaks deterministic replay (pre-split one stream per task)", context)
}

// splitDerivedAt reports whether v, observed at the launch position,
// is Split-derived: every definition of v that can reach the launch is
// a Split() call or an alias of a Split-derived variable. The check
// runs on the reaching-definitions solution of the innermost enclosing
// function that actually defines v, so a generator re-bound to a shared
// one after its Split (`s := rng.Split(); s = rng`) is caught, while an
// alias of a split stream (`alias := s`) is accepted.
func splitDerivedAt(pass *Pass, stack []ast.Node, v *types.Var, at token.Pos) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
		default:
			continue
		}
		f := pass.Pkg.flowFor(stack[i])
		defs := f.defsAt(v, at)
		if len(defs) == 0 {
			continue // v is not defined in this function: look outward
		}
		return splitDefs(pass, f, defs, map[*definition]bool{})
	}
	return false
}

// splitDefs reports whether every definition in defs produces a
// Split-derived value, following alias chains through the same flow.
func splitDefs(pass *Pass, f *flow, defs []*definition, visited map[*definition]bool) bool {
	for _, d := range defs {
		if visited[d] {
			continue // cycle on the derivation path: not a new source
		}
		visited[d] = true
		if d.kind != defAssign {
			return false // parameters, multi-value results, x op= y: opaque
		}
		rhs := d.rhs
		for {
			p, ok := rhs.(*ast.ParenExpr)
			if !ok {
				break
			}
			rhs = p.X
		}
		if isSplitCall(pass, rhs) {
			continue
		}
		id, ok := rhs.(*ast.Ident)
		if !ok {
			return false
		}
		av, ok := pass.Pkg.Info.Uses[id].(*types.Var)
		if !ok {
			return false
		}
		adefs := f.defsAt(av, d.node.Pos())
		if len(adefs) == 0 || !splitDefs(pass, f, adefs, visited) {
			return false
		}
	}
	return true
}

// isSplitCall reports whether e is a Split() method call on a *stats.RNG.
func isSplitCall(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Split" {
		return false
	}
	return isNamed(pass.Pkg.Info.TypeOf(sel.X), "internal/stats", "RNG")
}
