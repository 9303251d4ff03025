// Module-wide call graph and function-summary fixpoint solver — the
// interprocedural backbone shared by the determinism, hotpath, goleak
// and lockcheck analyzers. Run builds the graph and solves the
// summaries once; every consumer reads the same solution. Resolution is
// CHA-style over go/types, stdlib-only:
//
//   - Static calls (plain functions and concrete-receiver methods)
//     resolve through Info.Uses. Calls into packages type-checked from
//     export data produce *types.Func objects from a different type
//     universe than the source-checked ones, so nodes are keyed by a
//     stable symbol string (import path + receiver + name) rather than
//     by object identity.
//   - Interface method calls resolve by class-hierarchy analysis: every
//     module method with the same name is a candidate callee. Matching
//     types.Implements across the two type universes is unreliable
//     (named types are not pointer-identical), so the match is by name —
//     a sound over-approximation for taint-style facts.
//   - go statements, defer statements and par.Group task funcs are plain
//     calls for summary purposes; their launch discipline is goleak's
//     business (see goleak.go).
//
// One walk per function body (bodyWalker) resolves its call sites and
// records the direct evidence for every summary fact, whichever
// analyzer consumes it. Function literals are attributed to their
// enclosing declared function: a closure's facts are the decl's facts.
// Calls through function values stay unresolved (no taint propagates) —
// acceptable because every summary fact here also has a direct
// intraprocedural detector.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// funcNode is one module function with source, plus what the one walk
// of its body found: resolved outgoing calls and direct evidence.
type funcNode struct {
	id      int    // index into callGraph.nodes
	sym     string // "because/internal/obs.Observer.Log"
	pkg     *Package
	decl    *ast.FuncDecl
	obj     *types.Func
	hotpath bool // carries a //lint:hotpath marker
	calls   []callSite
	direct  summary // the body's own facts, before propagation
	// mutexOps is set when the body names a Lock/Unlock-family method:
	// lockcheck's syntactic probe for its trivial-flow fast path.
	mutexOps bool
}

// shortName renders the node for diagnostics: pkgname.Func or
// pkgname.Type.Method.
func (n *funcNode) shortName() string {
	name := n.decl.Name.Name
	if n.decl.Recv != nil && len(n.decl.Recv.List) > 0 {
		if recv := recvTypeName(n.decl.Recv.List[0].Type); recv != "" {
			name = recv + "." + name
		}
	}
	return n.pkg.Name + "." + name
}

// callSite is one resolved call expression inside a funcNode's body
// (including bodies of nested function literals).
type callSite struct {
	call    *ast.CallExpr
	callees []*funcNode // module functions this call may reach
}

// callGraph indexes every function declared in the loaded targets. Run
// builds one per lint run and hands it to every module analyzer.
type callGraph struct {
	nodes  []*funcNode            // deterministic: package, file, decl order
	bySym  map[string]*funcNode   // symbol → node
	byName map[string][]*funcNode // method name → concrete methods (CHA)
}

// HotpathDirective marks a function as allocation-free by contract: the
// hotpath analyzer rejects any allocation on a path reachable from it.
// Place it in the doc comment or on the declaration line.
const HotpathDirective = "//lint:hotpath"

func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{
		bySym:  map[string]*funcNode{},
		byName: map[string][]*funcNode{},
	}
	// Pass 1: index every declared function.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			hotLines := hotpathLines(pkg, f)
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[decl.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &funcNode{
					id:      len(g.nodes),
					sym:     funcSymbol(obj),
					pkg:     pkg,
					decl:    decl,
					obj:     obj,
					hotpath: declIsHotpath(pkg, decl, hotLines),
				}
				g.nodes = append(g.nodes, n)
				g.bySym[n.sym] = n
				if decl.Recv != nil {
					g.byName[decl.Name.Name] = append(g.byName[decl.Name.Name], n)
				}
			}
		}
	}
	// Pass 2: one walk per body.
	w := &bodyWalker{g: g}
	for _, n := range g.nodes {
		w.walk(n)
	}
	return g
}

// hotpathLines returns the set of lines in f carrying a //lint:hotpath
// comment, so a same-line marker after the declaration header works.
func hotpathLines(pkg *Package, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if isHotpathComment(c.Text) {
				lines[pkg.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

func isHotpathComment(text string) bool {
	if len(text) < len(HotpathDirective) || text[:len(HotpathDirective)] != HotpathDirective {
		return false
	}
	rest := text[len(HotpathDirective):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

func declIsHotpath(pkg *Package, decl *ast.FuncDecl, hotLines map[int]bool) bool {
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if isHotpathComment(c.Text) {
				return true
			}
		}
	}
	return hotLines[pkg.Fset.Position(decl.Pos()).Line]
}

// funcSymbol builds the stable cross-universe key for fn:
// "pkgpath.Name" for functions, "pkgpath.Recv.Name" for methods (the
// receiver's named type, pointer-stripped).
func funcSymbol(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		name := "?"
		if obj := namedObj(sig.Recv().Type()); obj != nil {
			name = obj.Name()
		}
		if fn.Pkg() != nil {
			return fn.Pkg().Path() + "." + name + "." + fn.Name()
		}
		return name + "." + fn.Name()
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// calleesOf resolves one call expression to module funcNodes. Calls to
// functions without module source (stdlib, export-data-only) and calls
// through plain function values resolve to nothing.
func (g *callGraph) calleesOf(pkg *Package, call *ast.CallExpr) []*funcNode {
	fn := calledFunc(pkg, call)
	if fn == nil {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		// Interface dispatch: CHA over every module method of this name.
		return g.byName[fn.Name()]
	}
	if n := g.bySym[funcSymbol(fn)]; n != nil {
		return []*funcNode{n}
	}
	return nil
}

// calledFunc returns the *types.Func a call expression statically names,
// or nil for builtins, conversions and function-value calls.
func calledFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// fact is one boolean function property propagated bottom-up over the
// call graph.
type fact uint8

const (
	factClock     fact = 1 << iota // reads the wall clock (time.Now & friends)
	factRand                       // reaches math/rand
	factAlloc                      // allocates (hotpath contract violations)
	factCtxJoin                    // blocks on a ctx.Done() receive
	factWGDone                     // calls (*sync.WaitGroup).Done
	factBlock                      // reaches a blocking op (chan send/recv/select, Wait, HTTP write)
	factMuAcquire                  // acquires a sync.Mutex/RWMutex somewhere downstream
)

// evidence is one direct site justifying a fact: where, and what it is
// ("time.Now", "map literal"). Call-chain evidence is reconstructed from
// direct sites by explain.
type evidence struct {
	pos  token.Pos
	desc string
}

// acqClass is one lock class a function may acquire: acquired in the
// function's own body (direct), or reached through the callee via.
type acqClass struct {
	direct *evidence
	via    *funcNode
}

// summary is one function's interprocedural summary: a fact bitmask
// with the first direct evidence per fact, and (for lockcheck) the set
// of lock classes the function may acquire.
type summary struct {
	facts fact
	// direct holds the first direct evidence per fact; call-chain
	// evidence is reconstructed on demand by explain.
	direct  map[fact]*evidence
	classes map[string]*acqClass // class key → evidence
}

// join folds callee's summary into s, crediting newly acquired classes
// to callee, and reports whether s grew.
func (s *summary) join(from *summary, callee *funcNode) bool {
	grew := false
	if add := from.facts &^ s.facts; add != 0 {
		s.facts |= add
		grew = true
	}
	for class := range from.classes {
		if _, ok := s.classes[class]; ok {
			continue
		}
		if s.classes == nil {
			s.classes = map[string]*acqClass{}
		}
		s.classes[class] = &acqClass{via: callee}
		grew = true
	}
	return grew
}

// bodyWalker is the one walk of a function body, nested literals
// included: it resolves the body's call sites and records the direct
// evidence for all seven summary facts. The per-analyzer rules:
//
//   - a declaration-level //lint:allow X zeroes only analyzer X's facts
//     (determinism: clock and rand; hotpath: alloc; lockcheck: block,
//     acquire and lock classes); a site-level allow drops only that site;
//   - deferred statements still feed clock, rand, alloc, ctx-join and
//     WaitGroup-Done facts, but no block or acquire fact: they run at
//     exit, interleaved with deferred unlocks;
//   - the first evidence per fact is the first site in pre-order.
//
// Wall-clock and math/rand references count, not just calls: storing
// time.Now in a struct field launders just as well as calling it. One
// walker instance serves the whole module.
type bodyWalker struct {
	g        *callGraph
	n        *funcNode
	exempt   struct{ det, hot, lock bool } // declaration-level allows
	deferred bool                          // inside a defer statement
	block    blockingSites
}

func (w *bodyWalker) walk(n *funcNode) {
	pkg := n.pkg
	w.n = n
	w.exempt.det = pkg.exemptFunc("determinism", n.decl)
	w.exempt.hot = pkg.exemptFunc("hotpath", n.decl)
	w.exempt.lock = pkg.exemptFunc("lockcheck", n.decl)
	w.block.reset(pkg)
	ast.Walk(w, n.decl.Body)
}

func (w *bodyWalker) Visit(node ast.Node) ast.Visitor {
	if node == nil {
		return nil
	}
	n, pkg := w.n, w.n.pkg
	if !w.exempt.hot {
		allocSites(pkg, node, w.alloc)
	}
	switch x := node.(type) {
	case *ast.DeferStmt:
		prev := w.deferred
		w.deferred = true
		ast.Walk(w, x.Call)
		w.deferred = prev
		return nil
	case *ast.Ident:
		if w.exempt.det {
			break
		}
		if isWallClockUse(pkg, x) {
			w.record("determinism", factClock, x.Pos(), "time."+x.Name)
		} else if obj := pkg.Info.Uses[x]; obj != nil && obj.Pkg() != nil && (obj.Pkg().Path() == "math/rand" || obj.Pkg().Path() == "math/rand/v2") {
			w.record("determinism", factRand, x.Pos(), obj.Pkg().Path()+"."+x.Name)
		}
	case *ast.SelectorExpr:
		if isLockMethod(x.Sel.Name) {
			n.mutexOps = true
		}
	case *ast.UnaryExpr:
		if x.Op == token.ARROW && recvIsCtxDone(pkg, x) {
			w.set(factCtxJoin, x.Pos(), "ctx.Done() receive")
		}
	case *ast.CallExpr:
		if callees := w.g.calleesOf(pkg, x); len(callees) > 0 {
			n.calls = append(n.calls, callSite{call: x, callees: callees})
		}
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && isNamed(pkg.Info.TypeOf(sel.X), "sync", "WaitGroup") && exprPath(sel.X) != "" {
			w.set(factWGDone, x.Pos(), "WaitGroup.Done")
		}
	}
	if !w.deferred && !w.exempt.lock {
		w.lockFacts(node)
	}
	return w
}

// lockFacts records lockcheck's direct evidence at one node: a blocking
// site, or a mutex acquisition together with its lock class (for the
// order graph).
func (w *bodyWalker) lockFacts(node ast.Node) {
	if desc := w.block.site(node); desc != "" {
		w.record("lockcheck", factBlock, node.Pos(), desc)
		return
	}
	call, ok := node.(*ast.CallExpr)
	if !ok {
		return
	}
	pkg, d := w.n.pkg, &w.n.direct
	x, method := mutexOp(pkg, call)
	if x == nil || method == "Unlock" || method == "RUnlock" {
		return
	}
	desc := exprPath(x) + "." + method
	if !w.record("lockcheck", factMuAcquire, call.Pos(), desc) {
		return
	}
	class := lockClass(pkg, x, declName(w.n.decl))
	if _, ok := d.classes[class]; class == "" || ok {
		return
	}
	if d.classes == nil {
		d.classes = map[string]*acqClass{}
	}
	d.classes[class] = &acqClass{direct: &evidence{pos: call.Pos(), desc: desc}}
}

func (w *bodyWalker) alloc(pos token.Pos, desc string) { w.record("hotpath", factAlloc, pos, desc) }

// record adds fact f unless a site-level allow for analyzer covers pos,
// and reports whether the site counted.
func (w *bodyWalker) record(analyzer string, f fact, pos token.Pos, desc string) bool {
	if w.n.pkg.exemptAt(analyzer, pos) {
		return false
	}
	w.set(f, pos, desc)
	return true
}

// set adds fact f to the node's direct summary; the first site per fact
// is its evidence.
func (w *bodyWalker) set(f fact, pos token.Pos, desc string) {
	d := &w.n.direct
	if d.facts&f == 0 {
		if d.direct == nil {
			d.direct = map[fact]*evidence{}
		}
		d.direct[f] = &evidence{pos: pos, desc: desc}
	}
	d.facts |= f
}

// summaries holds the solved per-function summaries over one call
// graph, indexed by funcNode.id. Run solves them once and every
// interprocedural analyzer reads the same solution.
type summaries struct {
	g   *callGraph
	sum []summary
}

// solveSummaries computes, for every module function, the join of its
// direct summary and the summaries of every resolvable callee,
// iterating in deterministic node order until fixpoint (so recursion
// and mutual recursion converge; summaries only grow). A lock class
// reaching a function through several callees is credited to the first
// one, in that order.
func solveSummaries(g *callGraph) *summaries {
	s := &summaries{g: g, sum: make([]summary, len(g.nodes))}
	for _, n := range g.nodes {
		s.sum[n.id] = n.direct
		s.sum[n.id].classes = maps.Clone(n.direct.classes)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			for _, site := range n.calls {
				for _, callee := range site.callees {
					if callee != n && s.sum[n.id].join(&s.sum[callee.id], callee) {
						changed = true
					}
				}
			}
		}
	}
	return s
}

// has reports whether n's summary carries f.
func (s *summaries) has(n *funcNode, f fact) bool { return s.sum[n.id].facts&f != 0 }

// explain renders the evidence chain for fact f starting at n:
// "time.Now at file.go:12" for direct evidence, or
// "via helper → inner: time.Now at file.go:12" through calls. The walk
// follows the first call site (in source order) whose callee carries the
// fact.
func (s *summaries) explain(n *funcNode, f fact) string {
	return s.chain(n, func(cur *funcNode, seen map[*funcNode]bool) (*evidence, *funcNode) {
		if ev := s.sum[cur.id].direct[f]; ev != nil {
			return ev, nil
		}
		for _, site := range cur.calls {
			for _, callee := range site.callees {
				if !seen[callee] && s.has(callee, f) {
					return nil, callee
				}
			}
		}
		return nil, nil
	})
}

// explainClass renders the evidence chain for acquiring lock class
// starting at n, following each hop's credited callee.
func (s *summaries) explainClass(n *funcNode, class string) string {
	return s.chain(n, func(cur *funcNode, _ map[*funcNode]bool) (*evidence, *funcNode) {
		if c := s.sum[cur.id].classes[class]; c != nil {
			return c.direct, c.via
		}
		return nil, nil
	})
}

// chain walks an evidence chain from n: step returns either the direct
// evidence at cur or the next hop (nil, nil ends the walk). A cycle
// guard bounds the walk.
func (s *summaries) chain(n *funcNode, step func(cur *funcNode, seen map[*funcNode]bool) (*evidence, *funcNode)) string {
	var hops []string
	seen := map[*funcNode]bool{}
	cur := n
	for range s.g.nodes {
		if seen[cur] {
			break
		}
		seen[cur] = true
		ev, next := step(cur, seen)
		if ev != nil {
			pos := cur.pkg.Fset.Position(ev.pos)
			site := fmt.Sprintf("%s at %s:%d", ev.desc, shortFile(pos.Filename), pos.Line)
			if len(hops) == 0 {
				return site
			}
			return "via " + strings.Join(hops, " → ") + ": " + site
		}
		if next == nil {
			break
		}
		hops = append(hops, next.shortName())
		cur = next
	}
	return "via an indirect call path"
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// shortFile trims a path to its base name for compact chain evidence.
func shortFile(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
