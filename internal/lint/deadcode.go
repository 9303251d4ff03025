package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// DeadCode returns the analyzer that flags every function and method no
// root reaches. Any reference to a function (Info.Uses, through Origin)
// is an edge, so function and method values count. Roots: main, init,
// initialisers, the roots packages' exported API, the nested modules'
// references (dirs relative to the first root package), methods that an
// interface a value is converted to names (ast.Walk calls Visit) or that
// fmt and encoding/json assert, and //lint:allow deadcode declarations:
// test oracles, whose callees count as reached. Partial loads: silent.
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
		r := &reach{callGraph: pass.graph, edges: make([][]*funcNode, len(pass.graph.nodes)), seen: make([]bool, len(pass.graph.nodes))}
		r.refs(pass.Pkgs)
		for _, dir := range nested {
			pkgs, err := Load(filepath.Join(rootPkgs[0].Dir, dir), "./...")
			if err != nil {
				pass.Reportf(rootPkgs[0].Files[0].Package, "loading nested module %s: %v", dir, err)
				return
			}
			r.refs(pkgs)
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

// reach is deadcode's reference graph over the call graph's nodes.
type reach struct {
	*callGraph
	edges [][]*funcNode // by node id: what the declaration references
	roots []*funcNode
	seen  []bool
}

func (r *reach) visit(n *funcNode) {
	if !r.seen[n.id] {
		r.seen[n.id] = true
		for _, m := range r.edges[n.id] {
			r.visit(m)
		}
	}
}

// refs records the packages' references: an edge from the enclosing
// module function, else a root; a conversion roots the methods dst names.
func (r *reach) refs(pkgs []*Package) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			var from []*funcNode
			var declSig *types.Signature
			inspectWithStack(f, func(x ast.Node, stack []ast.Node) {
				if fd, _ := x.(*ast.FuncDecl); len(stack) == 1 {
					from, declSig = nil, nil
					if fd != nil {
						from = r.resolve(pkg.Info.Defs[fd.Name])
						declSig, _ = pkg.Info.TypeOf(fd.Name).(*types.Signature)
					}
				}
				switch x := x.(type) {
				case *ast.Ident:
					if to := r.resolve(pkg.Info.Uses[x]); len(from) == 1 {
						r.edges[from[0].id] = append(r.edges[from[0].id], to...)
					} else {
						r.roots = append(r.roots, to...)
					}
				case *ast.CallExpr:
					if tv := pkg.Info.Types[x.Fun]; tv.IsType() && len(x.Args) == 1 {
						r.converted(pkg, tv.Type, x.Args[0])
					} else if sig, ok := tv.Type.(*types.Signature); ok {
						for i, arg := range x.Args {
							r.converted(pkg, paramType(sig, i, x.Ellipsis.IsValid()), arg)
						}
					}
				case *ast.AssignStmt:
					for i := 0; len(x.Lhs) == len(x.Rhs) && i < len(x.Rhs); i++ {
						r.converted(pkg, pkg.Info.TypeOf(x.Lhs[i]), x.Rhs[i])
					}
				case *ast.ValueSpec:
					for _, v := range x.Values {
						r.converted(pkg, pkg.Info.TypeOf(x.Type), v)
					}
				case *ast.ReturnStmt:
					sig := declSig
					if lit, ok := enclosingFunc(stack).(*ast.FuncLit); ok {
						sig, _ = pkg.Info.TypeOf(lit).(*types.Signature)
					}
					for i := 0; sig != nil && sig.Results().Len() == len(x.Results) && i < len(x.Results); i++ {
						r.converted(pkg, sig.Results().At(i).Type(), x.Results[i])
					}
				}
			})
		}
	}
}

// converted roots the methods of e's type that interface type dst names.
func (r *reach) converted(pkg *Package, dst types.Type, e ast.Expr) {
	if t := pkg.Info.TypeOf(e); dst != nil && t != nil && types.IsInterface(dst) && !types.IsInterface(t) {
		iface := dst.Underlying().(*types.Interface)
		for i := range iface.NumMethods() {
			m := iface.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
			r.roots = append(r.roots, r.resolve(obj)...)
		}
	}
}
