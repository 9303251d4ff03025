package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxFlow returns the analyzer that enforces PR 4's context-threading
// contract: cancellation must stay end-to-end and sweep-granular, which
// only holds when every layer passes the caller's context down.
//
// Two rules:
//
//  1. Library packages (everything that is not a main package and not
//     under cmd/) must not mint root contexts with context.Background()
//     or context.TODO(). The one exempt idiom is defensive defaulting
//     (`if ctx == nil { ctx = context.Background() }` assigning to a
//     context parameter); any other root needs a `//lint:allow ctxflow`
//     directive that says why nothing upstream can supply a ctx.
//
//  2. A function that receives a context.Context must hand it (or a
//     context.With* derivative of it) to every context-aware callee on
//     every reachable path. The check is dataflow-based: the argument in
//     the callee's context slot must, along all reaching definitions,
//     derive from the receiving function's context parameter. Derivation
//     follows context-passthrough helpers too — any call returning a
//     context.Context (directly or in a result tuple) counts as derived
//     when one of its context-typed arguments is derived, so carriers
//     like obs.ContextWithSpan(ctx, span) and
//     obs.StartTraceSpan(ctx, name) stay clean without laundering a
//     dropped ctx (a helper fed a foreign context is still flagged).
func CtxFlow() *Analyzer {
	a := &Analyzer{
		Name: "ctxflow",
		Doc:  "require end-to-end context threading: no Background/TODO in library packages, no dropping the in-scope ctx",
	}
	a.Run = func(pass *Pass) {
		library := pass.Pkg.Name != "main" && !underCmd(pass.Pkg.ImportPath)
		for _, f := range pass.Pkg.Files {
			if library {
				inspectWithStack(f, func(n ast.Node, stack []ast.Node) {
					checkRootContext(pass, n, stack)
				})
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					if fn.Body != nil {
						checkCtxThreading(pass, fn)
					}
				case *ast.FuncLit:
					checkCtxThreading(pass, fn)
				}
				return true
			})
		}
	}
	return a
}

// checkRootContext flags context.Background()/context.TODO() calls in
// library code, modulo the nil-ctx default.
func checkRootContext(pass *Pass, n ast.Node, stack []ast.Node) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := contextFuncName(pass, call)
	if !ok || (name != "Background" && name != "TODO") {
		return
	}
	// Exemption: defensive defaulting onto a context parameter —
	// `ctx = context.Background()` where ctx is a parameter of an
	// enclosing function.
	if len(stack) > 0 {
		if as, ok := stack[len(stack)-1].(*ast.AssignStmt); ok && as.Tok == token.ASSIGN && len(as.Lhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				if v, ok := pass.Pkg.Info.Uses[id].(*types.Var); ok && isContextType(v.Type()) && isParamOfEnclosing(pass, v, stack) {
					return
				}
			}
		}
	}
	pass.Reportf(call.Pos(), "context.%s() in library package %s: thread the caller's ctx instead (cancellation must stay end-to-end)", name, pass.Pkg.ImportPath)
}

// checkCtxThreading applies rule 2 to one function: when fn receives a
// context.Context, every context-aware call on a reachable path must get
// a ctx derived from it. Nested closures that declare their own context
// parameter are skipped here — they are analyzed as functions of their
// own; closures without one are walked, since they close over this ctx.
func checkCtxThreading(pass *Pass, fn ast.Node) {
	body, fieldLists := funcParts(fn)
	if body == nil {
		return
	}
	hasCtx := false
	for _, fl := range fieldLists {
		for _, field := range fl.List {
			for _, name := range field.Names {
				if v, ok := pass.Pkg.Info.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
					hasCtx = true
				}
			}
		}
	}
	if !hasCtx {
		return
	}
	f := pass.Pkg.flowFor(fn)
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if funcTypeHasContext(pass, n.Type) {
				return false // has its own ctx: analyzed separately
			}
		case *ast.CallExpr:
			checkContextAwareCall(pass, f, n)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// checkContextAwareCall verifies one call: when the callee's signature
// takes a context.Context, the argument in that slot must derive from the
// enclosing function's context parameter.
func checkContextAwareCall(pass *Pass, f *flow, call *ast.CallExpr) {
	tv, ok := pass.Pkg.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return // builtin or unknown
	}
	ctxIdx := -1
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			ctxIdx = i
			break
		}
	}
	if ctxIdx < 0 || ctxIdx >= len(call.Args) {
		return
	}
	if sig.Variadic() && ctxIdx >= sig.Params().Len()-1 {
		return // context in the variadic tail: out of scope
	}
	if len(call.Args) == 1 {
		if tv, ok := pass.Pkg.Info.Types[call.Args[0]]; ok {
			if _, isTuple := tv.Type.(*types.Tuple); isTuple {
				return // f(g()) multi-value expansion: argument untraceable
			}
		}
	}
	if !f.reachableAt(call.Pos()) {
		return // dead code cannot drop a live context
	}
	arg := call.Args[ctxIdx]
	if name, ok := contextFuncName(pass, argCall(arg)); ok && (name == "Background" || name == "TODO") {
		// Rule 1 territory: in library packages that call is already
		// flagged; in main packages, dropping an in-scope ctx for a fresh
		// root is exactly the bug rule 2 exists for.
		if underCmd(pass.Pkg.ImportPath) || pass.Pkg.Name == "main" {
			pass.Reportf(arg.Pos(), "call to %s replaces the in-scope ctx with context.%s(): pass the caller's context so cancellation stays end-to-end", calleeName(call), name)
		}
		return
	}
	if !ctxDerived(pass, f, arg, arg.Pos(), map[*definition]bool{}) {
		pass.Reportf(arg.Pos(), "call to %s does not receive this function's ctx: pass the caller's context (or a context.With* derivative) so cancellation stays end-to-end", calleeName(call))
	}
}

// ctxDerived reports whether e, evaluated at pos, always carries a value
// derived from a context parameter of the enclosing function: the
// parameter itself, a context.With* wrapper over a derived context, or a
// variable whose every reaching definition is one of those.
func ctxDerived(pass *Pass, f *flow, e ast.Expr, pos token.Pos, visited map[*definition]bool) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return ctxDerived(pass, f, e.X, pos, visited)
	case *ast.CallExpr:
		if name, ok := contextFuncName(pass, e); ok && strings.HasPrefix(name, "With") && len(e.Args) > 0 {
			return ctxDerived(pass, f, e.Args[0], pos, visited)
		}
		// Context-passthrough helper: a call returning context.Context that
		// was fed a derived context keeps the derivation alive (e.g.
		// obs.ContextWithSpan(ctx, span) — the trace layer's carrier). A
		// helper that swallowed its ctx and minted a root instead is flagged
		// at its own Background()/TODO() call by rule 1.
		if tv, ok := pass.Pkg.Info.Types[e]; ok && tv.Type != nil && isContextType(tv.Type) {
			return anyCtxArgDerived(pass, f, e.Args, pos, visited)
		}
		return false
	case *ast.Ident:
		v, ok := pass.Pkg.Info.Uses[e].(*types.Var)
		if !ok {
			return false
		}
		defs := f.defsAt(v, pos)
		if len(defs) == 0 {
			return false
		}
		for _, d := range defs {
			if visited[d] {
				continue // already on the derivation path: cycle, not a new source
			}
			visited[d] = true
			switch d.kind {
			case defOpaque:
				// Entry definitions (node == nil) are the parameters; a
				// context-typed parameter is the root of every derivation.
				if !(d.node == nil && isContextType(d.v.Type())) {
					return false
				}
			case defAssign:
				// The defensive-default idiom re-defines a context parameter
				// with a root context (`if ctx == nil { ctx = Background() }`);
				// passing that parameter on afterwards is still threading the
				// caller's context, so the def counts as derived.
				if name, ok := contextFuncName(pass, argCall(d.rhs)); ok && (name == "Background" || name == "TODO") && f.hasEntryDef(d.v) {
					continue
				}
				if !ctxDerived(pass, f, d.rhs, d.node.Pos(), visited) {
					return false
				}
			case defMulti:
				// ctx2, cancel := context.WithTimeout(ctx, d) — or a
				// passthrough helper returning a context among its results,
				// like span, ctx2 := obs.StartTraceSpan(ctx, name). Either
				// way the picked result must itself be a context and the
				// call must have been fed a derived one.
				rhs, ok := d.rhs.(*ast.CallExpr)
				if !ok {
					return false
				}
				tv, ok := pass.Pkg.Info.Types[rhs]
				if !ok || tv.Type == nil {
					return false
				}
				tuple, ok := tv.Type.(*types.Tuple)
				if !ok || d.idx >= tuple.Len() || !isContextType(tuple.At(d.idx).Type()) {
					return false
				}
				if name, isCtx := contextFuncName(pass, rhs); isCtx {
					if !strings.HasPrefix(name, "With") || len(rhs.Args) == 0 ||
						!ctxDerived(pass, f, rhs.Args[0], d.node.Pos(), visited) {
						return false
					}
				} else if !anyCtxArgDerived(pass, f, rhs.Args, d.node.Pos(), visited) {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	return false
}

// anyCtxArgDerived reports whether any context-typed argument of a call
// is derived from the enclosing function's context parameter — the shared
// test behind both passthrough-helper forms.
func anyCtxArgDerived(pass *Pass, f *flow, args []ast.Expr, pos token.Pos, visited map[*definition]bool) bool {
	for _, arg := range args {
		atv, ok := pass.Pkg.Info.Types[arg]
		if !ok || atv.Type == nil || !isContextType(atv.Type) {
			continue
		}
		if ctxDerived(pass, f, arg, pos, visited) {
			return true
		}
	}
	return false
}

// contextFuncName returns the name of the context-package function call
// (Background, TODO, WithCancel, ...) and whether call is one.
func contextFuncName(pass *Pass, call *ast.CallExpr) (string, bool) {
	if call == nil {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return "", false
	}
	return obj.Name(), true
}

// argCall unwraps e to a call expression through parentheses, or nil.
func argCall(e ast.Expr) *ast.CallExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			return x
		default:
			return nil
		}
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// funcTypeHasContext reports whether the function type declares a
// context.Context parameter.
func funcTypeHasContext(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := pass.Pkg.Info.Types[field.Type]
		if ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// isParamOfEnclosing reports whether v is declared in the parameter (or
// receiver/result) list of one of the functions on the ancestor stack.
func isParamOfEnclosing(pass *Pass, v *types.Var, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		_, fieldLists := funcParts(stack[i])
		for _, fl := range fieldLists {
			for _, field := range fl.List {
				for _, name := range field.Names {
					if pass.Pkg.Info.Defs[name] == v {
						return true
					}
				}
			}
		}
	}
	return false
}

// calleeName renders the called function for diagnostics: the selector
// path for x.F(...) or the identifier for F(...).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "the callee"
}

// underCmd reports whether the import path lies under a cmd/ tree.
func underCmd(importPath string) bool {
	return strings.HasPrefix(importPath, "cmd/") || strings.Contains(importPath, "/cmd/")
}
