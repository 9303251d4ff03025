package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath returns the analyzer enforcing allocation-free contracts:
// a function marked //lint:hotpath (doc comment or declaration line)
// must not allocate on any reachable path. Directly it flags map/slice
// literals, address-taken composite literals, closures, make/new,
// append (which may grow past capacity), fmt.* calls, defer, and
// interface boxing at call sites; interprocedurally, a call-graph
// summary catches hot functions reaching an allocating helper anywhere
// in the module. A site-level //lint:allow hotpath exempts one
// allocation; on a helper's declaration it exempts the helper's whole
// summary.
func Hotpath() *Analyzer {
	a := &Analyzer{
		Name: "hotpath",
		Doc:  "functions marked //lint:hotpath must not allocate on any reachable path",
	}
	a.RunModule = func(pass *ModulePass) {
		sums := pass.sums
		for _, n := range pass.graph.nodes {
			if !n.hotpath {
				continue
			}
			report := func(pos token.Pos, desc string) {
				pass.Reportf(pos, "hotpath function %s allocates: %s (the //lint:hotpath contract forbids allocation; hoist it to setup or annotate //lint:allow hotpath)", n.shortName(), desc)
			}
			ast.Inspect(n.decl.Body, func(node ast.Node) bool {
				allocSites(n.pkg, node, report)
				return true
			})
			for _, site := range n.calls {
				for _, callee := range site.callees {
					if callee == n || callee.hotpath || !sums.has(callee, factAlloc) {
						continue
					}
					pass.Reportf(site.call.Pos(), "call to %s from hotpath function %s reaches an allocation (%s): fix the helper, or mark it //lint:allow hotpath on its declaration", callee.shortName(), n.shortName(), sums.explain(callee, factAlloc))
					break
				}
			}
		}
	}
	return a
}

// allocSites is the per-node allocation classifier: it calls add for
// each direct allocation (or allocation-adjacent overhead: defer) node
// itself makes, children excluded. The summary walk feeds it every body
// node; the direct report feeds it the body of each //lint:hotpath
// function.
func allocSites(pkg *Package, node ast.Node, add func(token.Pos, string)) {
	switch x := node.(type) {
	case *ast.CompositeLit:
		switch pkg.Info.TypeOf(x).Underlying().(type) {
		case *types.Map:
			add(x.Pos(), "map literal")
		case *types.Slice:
			add(x.Pos(), "slice literal")
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				add(x.Pos(), "address of composite literal")
			}
		}
	case *ast.FuncLit:
		add(x.Pos(), "closure literal")
	case *ast.DeferStmt:
		add(x.Pos(), "defer")
	case *ast.CallExpr:
		allocCallSites(pkg, x, add)
	}
}

// allocCallSites flags the allocating call forms: the make/new/append
// builtins, fmt.* calls, interface conversions, and interface boxing of
// concrete arguments.
func allocCallSites(pkg *Package, call *ast.CallExpr, add func(token.Pos, string)) {
	info := pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make")
			case "new":
				add(call.Pos(), "new")
			case "append":
				add(call.Pos(), "append (may grow past capacity)")
			}
			return // builtins (panic included) never box their arguments
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: T(x) with interface T boxes x.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if desc := boxedArg(pkg, call.Args[0]); desc != "" {
				add(call.Pos(), desc)
			}
		}
		return
	}
	if fn := calledFunc(pkg, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		add(call.Pos(), "call to fmt."+fn.Name())
		return
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i, call.Ellipsis.IsValid())
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if desc := boxedArg(pkg, arg); desc != "" {
			add(arg.Pos(), desc)
		}
	}
}

// paramType returns the type the i-th argument is assigned to, resolving
// variadic parameters to their element type (or nil when the slice is
// passed whole with `...`, which does not box).
func paramType(sig *types.Signature, i int, ellipsis bool) types.Type {
	last := sig.Params().Len() - 1
	if sig.Variadic() && i >= last {
		if ellipsis {
			return nil
		}
		if sl, ok := sig.Params().At(last).Type().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i > last {
		return nil
	}
	return sig.Params().At(i).Type()
}

// boxedArg describes the boxing an interface-typed destination causes
// for arg, or "" when no allocation happens: constants compile to static
// interface data, interfaces re-box for free, and pointer-shaped values
// (pointers, channels, maps, funcs) fit the interface word directly.
func boxedArg(pkg *Package, arg ast.Expr) string {
	tv, ok := pkg.Info.Types[arg]
	if !ok || tv.Value != nil || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if types.IsInterface(t) || tv.IsNil() {
		return ""
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return ""
	}
	return fmt.Sprintf("interface boxing of %s", types.TypeString(t, types.RelativeTo(pkg.Types)))
}
