package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// DeadCode returns the analyzer that flags every function and method no
// root reaches. Any reference to a function (Info.Uses, through Origin)
// is an edge, so function and method values count, and so is converting
// a value to an interface, to the methods the interface names (ast.Walk
// calls Visit). Roots: main, init, what initialisers reference, the root
// packages' exported API, the nested modules' references (dirs relative
// to the first root package), methods that fmt and encoding/json assert,
// and //lint:allow deadcode declarations: test oracles, whose callees
// count as reached. Partial loads: silent.
func DeadCode(roots, nested []string) *Analyzer {
	a := &Analyzer{
		Name: "deadcode",
		Doc:  "flag functions and methods that no root (main, init, root package API, nested module, interface conversion) reaches",
	}
	a.RunModule = func(pass *ModulePass) {
		var rootPkgs []*Package
		for _, pkg := range pass.Pkgs {
			if pathMatches(pkg.ImportPath, roots) {
				rootPkgs = append(rootPkgs, pkg)
			}
		}
		if len(rootPkgs) < len(roots) {
			for _, n := range pass.graph.nodes {
				n.pkg.exemptFunc(a.Name, n.decl) // no allow is stale on a partial load
			}
			return
		}
		r := &reach{callGraph: pass.graph, seen: make([]bool, len(pass.graph.nodes))}
		r.rootRefs(pass.Pkgs, false)
		for _, dir := range nested {
			pkgs, err := Load(filepath.Join(rootPkgs[0].Dir, dir), "./...")
			if err != nil {
				pass.Reportf(rootPkgs[0].Files[0].Package, "loading nested module %s: %v", dir, err)
				return
			}
			r.rootRefs(pkgs, true)
		}
		for _, n := range r.roots {
			r.visit(n)
		}
		for _, n := range r.nodes {
			if name := n.decl.Name.Name; n.decl.Recv == nil && (name == "init" || name == "main" && n.pkg.Name == "main") ||
				n.decl.Recv != nil && reflectHooks[name] || n.obj.Exported() && pathMatches(n.pkg.ImportPath, roots) {
				r.visit(n)
			}
		}
		for _, n := range r.nodes {
			if !r.seen[n.id] && n.pkg.exemptFunc(a.Name, n.decl) {
				r.visit(n)
			}
		}
		for _, n := range r.nodes {
			if !r.seen[n.id] {
				pass.Reportf(n.decl.Name.Pos(), "%s is unreachable: no root references it (delete it, or mark a test oracle with //lint:allow deadcode <reason>)", n.shortName())
			}
		}
	}
	return a
}

// reflectHooks are the methods fmt and encoding/json find by assertion.
var reflectHooks = map[string]bool{"Error": true, "String": true, "MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true}

// reach is deadcode's reference graph over the call graph's nodes: the
// edges are each node's refs, which the call graph's body walk records.
type reach struct {
	*callGraph
	roots []*funcNode
	seen  []bool
}

func (r *reach) visit(n *funcNode) {
	if !r.seen[n.id] {
		r.seen[n.id] = true
		for _, m := range n.refs {
			r.visit(m)
		}
	}
}

// rootRefs roots what the packages' package-level initialisers reference,
// and with funcs what their function declarations reference too: the
// nested modules' functions are no nodes of the graph.
func (r *reach) rootRefs(pkgs []*Package, funcs bool) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if _, ok := d.(*ast.FuncDecl); ok && !funcs {
					continue
				}
				inspectWithStack(d, func(x ast.Node, stack []ast.Node) {
					var sig *types.Signature
					if _, ok := x.(*ast.ReturnStmt); ok {
						switch fn := enclosingFunc(stack).(type) {
						case *ast.FuncDecl:
							sig, _ = pkg.Info.TypeOf(fn.Name).(*types.Signature)
						case *ast.FuncLit:
							sig, _ = pkg.Info.TypeOf(fn).(*types.Signature)
						}
					}
					r.roots = r.refsAt(pkg, x, sig, r.roots)
				})
			}
		}
	}
}

// refsAt appends to refs the module functions node references: what an
// identifier names, and the methods of a concrete value's type that the
// interface it is converted to names (ast.Walk calls Visit) — in a
// conversion, a call argument, an assignment, a var declaration or a
// return from a function of signature sig.
func (g *callGraph) refsAt(pkg *Package, node ast.Node, sig *types.Signature, refs []*funcNode) []*funcNode {
	switch x := node.(type) {
	case *ast.Ident:
		refs = append(refs, g.resolve(pkg.Info.Uses[x])...)
	case *ast.CallExpr:
		if tv := pkg.Info.Types[x.Fun]; tv.IsType() && len(x.Args) == 1 {
			refs = g.converted(pkg, tv.Type, x.Args[0], refs)
		} else if sig, ok := tv.Type.(*types.Signature); ok {
			for i, arg := range x.Args {
				refs = g.converted(pkg, paramType(sig, i, x.Ellipsis.IsValid()), arg, refs)
			}
		}
	case *ast.AssignStmt:
		for i := 0; len(x.Lhs) == len(x.Rhs) && i < len(x.Rhs); i++ {
			refs = g.converted(pkg, pkg.Info.TypeOf(x.Lhs[i]), x.Rhs[i], refs)
		}
	case *ast.ValueSpec:
		for _, v := range x.Values {
			refs = g.converted(pkg, pkg.Info.TypeOf(x.Type), v, refs)
		}
	case *ast.ReturnStmt:
		for i := 0; sig != nil && sig.Results().Len() == len(x.Results) && i < len(x.Results); i++ {
			refs = g.converted(pkg, sig.Results().At(i).Type(), x.Results[i], refs)
		}
	}
	return refs
}

// converted appends to refs the methods of e's type that interface type
// dst names.
func (g *callGraph) converted(pkg *Package, dst types.Type, e ast.Expr, refs []*funcNode) []*funcNode {
	if t := pkg.Info.TypeOf(e); dst != nil && t != nil && types.IsInterface(dst) && !types.IsInterface(t) {
		iface := dst.Underlying().(*types.Interface)
		for i := range iface.NumMethods() {
			m := iface.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
			refs = append(refs, g.resolve(obj)...)
		}
	}
	return refs
}
