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
		sums := solveSummaries(pass.graph, hotpathFacts)
		for _, n := range pass.graph.nodes {
			if !n.hotpath {
				continue
			}
			for _, site := range allocSites(n) {
				pass.Reportf(site.pos, "hotpath function %s allocates: %s (the //lint:hotpath contract forbids allocation; hoist it to setup or annotate //lint:allow hotpath)", n.shortName(), site.desc)
			}
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

// hotpathFacts is the direct-fact collector for allocation summaries.
// Site-level allow directives exempt a single allocation; a
// declaration-level directive zeroes the function's summary.
func hotpathFacts(n *funcNode) summary {
	if n.pkg.exemptFunc("hotpath", n.decl) {
		return summary{}
	}
	var f fact
	ev := map[fact]*evidence{}
	for _, site := range allocSites(n) {
		site := site
		if n.pkg.exemptAt("hotpath", site.pos) {
			continue
		}
		if f&factAlloc == 0 {
			ev[factAlloc] = &site
		}
		f |= factAlloc
	}
	return summary{facts: f, direct: ev}
}

// allocSites lists every direct allocation (or allocation-adjacent
// overhead: defer) in n's body, nested literals included, in source
// order.
func allocSites(n *funcNode) []evidence {
	var out []evidence
	info := n.pkg.Info
	add := func(pos token.Pos, desc string) {
		out = append(out, evidence{pos: pos, desc: desc})
	}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CompositeLit:
			switch info.TypeOf(x).Underlying().(type) {
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
			allocCallSites(n.pkg, x, add)
		}
		return true
	})
	return out
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
