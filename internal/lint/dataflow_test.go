package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// loadFixturePkg loads one testdata package through the regular loader.
func loadFixturePkg(t *testing.T, name string) *Package {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(cwd, "./testdata/src/"+name)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	return pkgs[0]
}

// funcDecl finds the named top-level function.
func funcDecl(t *testing.T, pkg *Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// localVar finds the variable named varName declared inside fd.
func localVar(t *testing.T, pkg *Package, fd *ast.FuncDecl, varName string) *types.Var {
	t.Helper()
	var found *types.Var
	ast.Inspect(fd, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != varName || found != nil {
			return true
		}
		if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
			found = v
		}
		return true
	})
	if found == nil {
		t.Fatalf("variable %s not found in %s", varName, fd.Name.Name)
	}
	return found
}

// firstReturn finds the lexically first return statement in fd.
func firstReturn(t *testing.T, fd *ast.FuncDecl) *ast.ReturnStmt {
	t.Helper()
	var ret *ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok && ret == nil {
			ret = r
		}
		return ret == nil
	})
	if ret == nil {
		t.Fatalf("no return statement in %s", fd.Name.Name)
	}
	return ret
}

// lastReturn finds the lexically last return statement in fd.
func lastReturn(t *testing.T, fd *ast.FuncDecl) *ast.ReturnStmt {
	t.Helper()
	var ret *ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			ret = r
		}
		return true
	})
	if ret == nil {
		t.Fatalf("no return statement in %s", fd.Name.Name)
	}
	return ret
}

// TestReachingDefs pins the engine's answers across control-flow
// shapes: how many definitions of x reach the function's return.
func TestReachingDefs(t *testing.T) {
	pkg := loadFixturePkg(t, "dataflow")
	cases := []struct {
		fn   string
		want int
	}{
		{"Loop", 2},
		{"Branch", 2},
		{"Rebind", 1},
		{"Switchy", 2},
		{"Labeled", 3},
		{"Gotoy", 2},
		{"DeferLoop", 2},
		{"SelectDefault", 2},
		{"GotoLoop", 2},
	}
	for _, tc := range cases {
		fd := funcDecl(t, pkg, tc.fn)
		f := pkg.flowFor(fd)
		v := localVar(t, pkg, fd, "x")
		ret := lastReturn(t, fd)
		defs := f.defsAt(v, ret.Pos())
		if len(defs) != tc.want {
			t.Errorf("%s: %d definitions of x reach the return, want %d", tc.fn, len(defs), tc.want)
		}
	}
}

// TestReachingDefsKillsFallthrough pins the specific def set for
// Switchy: the fallthrough def (x = 1) is killed by the next case body.
func TestReachingDefsKillsFallthrough(t *testing.T) {
	pkg := loadFixturePkg(t, "dataflow")
	fd := funcDecl(t, pkg, "Switchy")
	f := pkg.flowFor(fd)
	v := localVar(t, pkg, fd, "x")
	ret := lastReturn(t, fd)
	for _, d := range f.defsAt(v, ret.Pos()) {
		if d.kind != defAssign {
			t.Fatalf("unexpected def kind %d", d.kind)
		}
		if lit, ok := d.rhs.(*ast.BasicLit); ok && lit.Value == "1" {
			t.Errorf("the fallthrough-killed def x = 1 reached the return")
		}
		if lit, ok := d.rhs.(*ast.BasicLit); ok && lit.Value == "0" {
			t.Errorf("the initial def x := 0 survived an exhaustive switch")
		}
	}
}

// TestSelectDefaultKillsInit pins the def set for SelectDefault: a
// select with a default clause still covers all paths when every clause
// assigns, so the initial def x := 0 never reaches the return.
func TestSelectDefaultKillsInit(t *testing.T) {
	pkg := loadFixturePkg(t, "dataflow")
	fd := funcDecl(t, pkg, "SelectDefault")
	f := pkg.flowFor(fd)
	v := localVar(t, pkg, fd, "x")
	for _, d := range f.defsAt(v, lastReturn(t, fd).Pos()) {
		if lit, ok := d.rhs.(*ast.BasicLit); ok && lit.Value == "0" {
			t.Errorf("the initial def x := 0 survived a select whose every clause assigns")
		}
	}
}

// TestMethodValueGoTarget pins the resolution chain the goleak analyzer
// leans on: a method value bound to a local and launched with go has
// exactly one reaching definition at the launch, and the one-hop
// function-value resolver lands on the underlying method.
func TestMethodValueGoTarget(t *testing.T) {
	pkg := loadFixturePkg(t, "dataflow")
	fd := funcDecl(t, pkg, "MethodGo")
	f := pkg.flowFor(fd)
	v := localVar(t, pkg, fd, "f")
	var gs *ast.GoStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			gs = g
		}
		return true
	})
	if gs == nil {
		t.Fatal("no go statement in MethodGo")
	}
	defs := f.defsAt(v, gs.Pos())
	if len(defs) != 1 {
		t.Fatalf("%d definitions of f reach the go statement, want 1", len(defs))
	}
	sel, ok := defs[0].rhs.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "run" {
		t.Errorf("the reaching definition's rhs is %T, want the method value t.run", defs[0].rhs)
	}
	id, ok := gs.Call.Fun.(*ast.Ident)
	if !ok {
		t.Fatalf("go target is %T, want *ast.Ident", gs.Call.Fun)
	}
	lit, fn := funcValueDef(pkg, gs, id, fd)
	if lit != nil {
		t.Errorf("funcValueDef resolved a literal, want the named method")
	}
	if fn == nil || fn.Name() != "run" {
		t.Errorf("funcValueDef resolved %v, want method run", fn)
	}
}

// TestReachability pins dead-code detection: statements after a return
// or after an exit-free for loop are unreachable, live ones are not.
func TestReachability(t *testing.T) {
	pkg := loadFixturePkg(t, "dataflow")
	for _, fn := range []string{"Dead", "InfiniteFor", "EmptySelect"} {
		fd := funcDecl(t, pkg, fn)
		f := pkg.flowFor(fd)
		if pos := firstReturn(t, fd).Pos(); !f.reachableAt(pos) {
			t.Errorf("%s: first return reported unreachable", fn)
		}
		if pos := lastReturn(t, fd).Pos(); f.reachableAt(pos) {
			t.Errorf("%s: trailing return after the function already exited reported reachable", fn)
		}
	}
}

// TestEntryDefs pins parameter handling: a parameter's definition
// reaches every point until shadowed by an assignment.
func TestEntryDefs(t *testing.T) {
	pkg := loadFixturePkg(t, "dataflow")
	fd := funcDecl(t, pkg, "Loop")
	f := pkg.flowFor(fd)
	var n *types.Var
	for _, field := range fd.Type.Params.List {
		for _, id := range field.Names {
			n = pkg.Info.Defs[id].(*types.Var)
		}
	}
	if !f.hasEntryDef(n) {
		t.Fatalf("parameter n has no entry definition")
	}
	defs := f.defsAt(n, lastReturn(t, fd).Pos())
	if len(defs) != 1 || defs[0].node != nil || defs[0].kind != defOpaque {
		t.Errorf("parameter n should reach the return as exactly its entry definition, got %d defs", len(defs))
	}
}

// BenchmarkLint measures a full production lint run over the module.
// An untimed priming run pays the `go list -export` subprocess plus the
// parse and type-check; the memoised loader then shares that one FileSet
// and AST forest across every timed iteration, while every analysis
// artifact (call graph, summaries, dataflow) is rebuilt per Run — so the
// benchmark isolates what analyzer changes actually move, pure analysis
// cost, instead of toolchain subprocess noise.
func BenchmarkLint(b *testing.B) {
	benchmarkLint(b, nil)
}

// BenchmarkLintAnalyzer breaks BenchmarkLint down: one sub-benchmark per
// production analyzer, each running alone over the same cached load.
func BenchmarkLintAnalyzer(b *testing.B) {
	for _, a := range All() {
		b.Run(a.Name, func(b *testing.B) {
			benchmarkLint(b, []*Analyzer{a})
		})
	}
}

func benchmarkLint(b *testing.B, analyzers []*Analyzer) {
	cwd, err := os.Getwd()
	if err != nil {
		b.Fatal(err)
	}
	root := filepath.Join(cwd, "..", "..")
	opts := Options{Analyzers: analyzers, RelTo: root}
	if _, err := Run(root, []string{"./..."}, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags, err := Run(root, []string{"./..."}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) > 0 {
			b.Fatalf("module not lint-clean: %v", diags[0])
		}
	}
}
