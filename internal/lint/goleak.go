package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeak returns the analyzer that requires every go statement to have a
// provable join or cancellation discipline, protecting the serve layer's
// job-drain invariants as it scales out. A launch is accepted when:
//
//   - WaitGroup pairing: the goroutine body calls Done() on a
//     sync.WaitGroup whose matching Add(...) appears before the launch
//     in the enclosing function (par.Group's own pool passes this way);
//   - channel join: the body sends on or closes a channel local to the
//     enclosing function, which receives from it after the launch;
//   - cancellation: the body receives from ctx.Done() on a
//     context.Context (directly or anywhere in a called module
//     function, via the call-graph summary);
//   - a named go target's summary carries one of the disciplines above.
//
// Everything else — including goroutines running functions with no
// module source, like http.Server.Serve — must carry a
// //lint:allow goleak directive stating the ownership story.
func GoLeak() *Analyzer {
	a := &Analyzer{
		Name: "goleak",
		Doc:  "every go statement needs a provable join or cancellation discipline (WaitGroup pairing, channel join, or ctx.Done select)",
	}
	a.RunModule = func(pass *ModulePass) {
		g, sums := pass.graph, pass.sums
		for _, pkg := range pass.Pkgs {
			for _, f := range pkg.Files {
				inspectWithStack(f, func(n ast.Node, stack []ast.Node) {
					gs, ok := n.(*ast.GoStmt)
					if !ok {
						return
					}
					fnNode := enclosingFunc(stack)
					if fnNode == nil || goDisciplined(pkg, g, sums, gs, fnNode) {
						return
					}
					pass.Reportf(gs.Pos(), "go statement without a provable join or cancellation: pair it with WaitGroup Add/Done, join on a channel the caller receives from, run it as a par.Group task, or select on ctx.Done() in the goroutine (annotate //lint:allow goleak with the ownership story if the goroutine is intentionally unmanaged)")
				})
			}
		}
	}
	return a
}

// goDisciplined reports whether the go statement has a provable join or
// cancellation discipline. fnNode is the innermost enclosing function
// (decl or literal); its body is the scope Add-pairing and channel joins
// are checked against.
func goDisciplined(pkg *Package, g *callGraph, sums *summaries, gs *ast.GoStmt, fnNode ast.Node) bool {
	enclosing, _ := funcParts(fnNode)
	if enclosing == nil {
		return false
	}
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		return litDisciplined(pkg, g, sums, fun, gs, enclosing)
	case *ast.Ident:
		// A function value: if it has a single visible definition that is
		// a literal or a named function, check that; otherwise unprovable.
		if fn, _ := pkg.Info.Uses[fun].(*types.Func); fn != nil {
			return namedDisciplined(pkg, g, sums, fn, gs, enclosing)
		}
		if lit, fn := funcValueDef(pkg, gs, fun, fnNode); lit != nil {
			return litDisciplined(pkg, g, sums, lit, gs, enclosing)
		} else if fn != nil {
			return namedDisciplined(pkg, g, sums, fn, gs, enclosing)
		}
		return false
	default:
		if fn := calledFunc(pkg, gs.Call); fn != nil {
			return namedDisciplined(pkg, g, sums, fn, gs, enclosing)
		}
		return false
	}
}

// litDisciplined checks a `go func(){...}()` launch.
func litDisciplined(pkg *Package, g *callGraph, sums *summaries, lit *ast.FuncLit, gs *ast.GoStmt, enclosing *ast.BlockStmt) bool {
	if bodyHasCtxDoneReceive(pkg, lit.Body) {
		return true
	}
	for _, path := range wgDonePaths(pkg, lit.Body) {
		if addCallBefore(pkg, enclosing, path, gs.Pos()) {
			return true
		}
	}
	if chanJoin(pkg, lit, enclosing) {
		return true
	}
	// Delegated discipline: the body calls a module function that blocks
	// on ctx.Done() (or pairs a WaitGroup whose Add precedes the launch).
	delegated := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || delegated {
			return !delegated
		}
		for _, callee := range g.calleesOf(pkg, call) {
			if sums.has(callee, factCtxJoin) {
				delegated = true
			}
			if sums.has(callee, factWGDone) && addCallBefore(pkg, enclosing, "", gs.Pos()) {
				delegated = true
			}
		}
		return !delegated
	})
	return delegated
}

// namedDisciplined checks a `go pkg.Worker(...)` launch through the
// target's summary.
func namedDisciplined(pkg *Package, g *callGraph, sums *summaries, fn *types.Func, gs *ast.GoStmt, enclosing *ast.BlockStmt) bool {
	node := g.bySym[funcSymbol(fn)]
	if node == nil {
		return false // no module source (e.g. http.Server.Serve): unprovable
	}
	if sums.has(node, factCtxJoin) {
		return true
	}
	return sums.has(node, factWGDone) && addCallBefore(pkg, enclosing, "", gs.Pos())
}

// funcValueDef resolves `f := <def>; go f()` one hop through reaching
// definitions: a single definition that is a function literal or a
// method value is returned; anything else stays unresolved.
func funcValueDef(pkg *Package, gs *ast.GoStmt, id *ast.Ident, fnNode ast.Node) (*ast.FuncLit, *types.Func) {
	v, ok := pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return nil, nil
	}
	defs := pkg.flowFor(fnNode).defsAt(v, gs.Pos())
	if len(defs) != 1 || defs[0].rhs == nil {
		return nil, nil
	}
	switch rhs := ast.Unparen(defs[0].rhs).(type) {
	case *ast.FuncLit:
		return rhs, nil
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[rhs.Sel].(*types.Func)
		return nil, fn
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[rhs].(*types.Func)
		return nil, fn
	}
	return nil, nil
}

// bodyHasCtxDoneReceive reports whether body contains a receive from
// ctx.Done() on a context.Context value (plain or inside a select).
func bodyHasCtxDoneReceive(pkg *Package, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if un, ok := n.(*ast.UnaryExpr); ok && un.Op == token.ARROW && recvIsCtxDone(pkg, un) {
			found = true
		}
		return !found
	})
	return found
}

// recvIsCtxDone reports whether the receive un reads ctx.Done() on a
// context.Context value.
func recvIsCtxDone(pkg *Package, un *ast.UnaryExpr) bool {
	call, ok := ast.Unparen(un.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Done" && isContextType(pkg.Info.TypeOf(sel.X))
}

func isWaitGroup(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t != nil && t.String() == "sync.WaitGroup"
}

// wgDonePaths lists the rendered receiver paths ("wg", "s.jobsWG") of
// every WaitGroup.Done() call in body, nested literals included.
func wgDonePaths(pkg *Package, body ast.Node) []string {
	var out []string
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" || !isWaitGroup(pkg, sel.X) {
			return true
		}
		if path := exprPath(sel.X); path != "" {
			out = append(out, path)
		}
		return true
	})
	return out
}

// addCallBefore reports whether a WaitGroup Add call on the given
// receiver path ("" accepts any WaitGroup) appears in scope lexically
// before pos.
func addCallBefore(pkg *Package, scope ast.Node, path string, pos token.Pos) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" || !isWaitGroup(pkg, sel.X) {
			return true
		}
		if path == "" || exprPath(sel.X) == path {
			found = true
		}
		return !found
	})
	return found
}

// chanJoin reports whether the literal signals completion on a channel
// local to the enclosing function that the enclosing function receives
// from outside the literal.
func chanJoin(pkg *Package, lit *ast.FuncLit, enclosing *ast.BlockStmt) bool {
	signalled := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			if obj := chanObj(pkg, x.Chan); obj != nil {
				signalled[obj] = true
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(x.Fun).(*ast.Ident)
			if !ok || id.Name != "close" || len(x.Args) != 1 {
				return true
			}
			if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			if obj := chanObj(pkg, x.Args[0]); obj != nil {
				signalled[obj] = true
			}
		}
		return true
	})
	if len(signalled) == 0 {
		return false
	}
	joined := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if n == lit {
			return false
		}
		un, ok := n.(*ast.UnaryExpr)
		if !ok || un.Op != token.ARROW {
			return !joined
		}
		if obj := chanObj(pkg, un.X); obj != nil && signalled[obj] {
			joined = true
		}
		return !joined
	})
	return joined
}

// chanObj returns the object of a plain identifier channel expression.
func chanObj(pkg *Package, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return pkg.Info.Uses[id]
}

// exprPath renders an identifier/selector chain ("s.jobsWG"); complex
// expressions render as "".
func exprPath(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	}
	return ""
}
