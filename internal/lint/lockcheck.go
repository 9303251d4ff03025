// lockcheck is the lock-discipline analyzer: the one concurrency
// contract family the race detector cannot see (deadlocks and
// lock-order inversions that never fire in tests) plus the one it only
// sees when the schedule cooperates (unguarded field access). Three
// checks share one intraprocedural must-held-lockset analysis over the
// cached CFGs from cfg.go and the run's interprocedural summaries from
// callgraph.go, in one walk over the call graph's function nodes:
//
//  1. Guarded fields. A field of a mutex-bearing struct annotated
//     `//lint:guard mu` must only be accessed with that very mutex held
//     on the same value; holding a sibling mutex does not count. Only
//     declared contracts are checked. Accesses to a value the function
//     just allocated are exempt (the constructor idiom), and a method
//     whose name ends in "Locked" is assumed to hold its receiver's
//     mutexes on entry — the convention jobRegistry.evictLocked and
//     job.broadcastLocked already follow.
//  2. Acquisition order. A module-wide lock-order graph: an edge A → B
//     for every site that acquires class B (directly, or anywhere in a
//     callee, via the lock-class sets of the summary fixpoint) while
//     holding class A. Any cycle is a deadlock waiting for the right
//     interleaving; each in-cycle edge is reported at its acquisition
//     site with both evidence chains. Re-locking the very path already
//     held is reported as a self-deadlock. Lock classes are
//     declaration-keyed: "pkg.Type.field" for struct mutexes, "pkg.var"
//     for package-level locks, "pkg.Func.var" for locals. TryLock is
//     modelled as an acquisition (its success branch is the interesting
//     one).
//  3. Blocking under a held lock. Channel send/receive/select/close,
//     ctx.Done() waits, time.Sleep, WaitGroup/Cond waits, writes to an
//     http.ResponseWriter, and calls whose summary reaches any of
//     those (factBlock) are flagged while a lock is held. Justified
//     sites — the broadcast-under-mutex-via-close idiom — carry
//     `//lint:allow lockcheck <reason>`; a site-level allow also keeps
//     the blocking fact out of the function's summary, and a
//     declaration-line allow exempts the whole function.
//
// Deliberate limits, all erring toward silence rather than noise:
// function literals analyse with an empty entry lockset (a closure may
// run anywhere); statements under defer are ignored (they run at exit,
// interleaved with deferred unlocks); and cross-instance reacquisition
// of one class (hand-over-hand locking) only feeds the order graph
// when a call reaches it, not for direct sibling locks.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// GuardDirective declares a struct field's lock contract explicitly:
// `//lint:guard mu` on the field line (or in its doc comment) requires
// every access to hold the sibling mutex field named mu.
const GuardDirective = "//lint:guard"

// Lockcheck returns the lock-discipline analyzer.
func Lockcheck() *Analyzer {
	a := &Analyzer{
		Name: "lockcheck",
		Doc:  "lock discipline: guarded-field contracts, global acquisition order, no blocking under a held lock",
	}
	a.RunModule = func(pass *ModulePass) {
		specs, guarded := collectGuardSpecs(pass)
		lc := &lockChecker{
			pass:    pass,
			sums:    pass.sums,
			specs:   specs,
			guarded: guarded,
			edges:   map[[2]string]*lockEdge{},
		}
		w := &unitWalker{lc: lc}
		for _, n := range pass.graph.nodes {
			w.walk(n)
		}
		lc.reportCycles()
	}
	return a
}

// ---------------------------------------------------------------------
// Guard specs: which fields are guarded by which mutex, per struct.

// guardSpec is the lock layout of one mutex-bearing struct type, keyed
// module-wide by "pkgpath.TypeName".
type guardSpec struct {
	embedded map[string]bool   // mutex field name → embedded (promoted Lock)
	explicit map[string]string // guarded field → mutex field, from //lint:guard
}

// structKeyOf resolves the named struct a field selection lands on:
// its module-wide key ("pkgpath.TypeName") and the underlying struct
// type. Anything else (anonymous structs included) yields "".
func structKeyOf(recv types.Type) (string, *types.Struct) {
	obj := namedObj(recv)
	if obj == nil {
		return "", nil
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return "", nil
	}
	if obj.Pkg() == nil {
		return obj.Name(), st
	}
	return obj.Pkg().Path() + "." + obj.Name(), st
}

// classDisplay shortens a lock class or struct key for messages: the
// import path is cut to its last element ("because/internal/serve.job.mu"
// → "serve.job.mu").
func classDisplay(key string) string {
	return key[strings.LastIndexByte(key, '/')+1:]
}

// structMutexes lists the sync.Mutex/RWMutex fields of st.
func structMutexes(st *types.Struct) (mutexes, embedded map[string]bool) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !isNamed(f.Type(), "sync", "Mutex", "RWMutex") {
			continue
		}
		if mutexes == nil {
			mutexes, embedded = map[string]bool{}, map[string]bool{}
		}
		mutexes[f.Name()] = true
		if f.Embedded() {
			embedded[f.Name()] = true
		}
	}
	return mutexes, embedded
}

// collectGuardSpecs walks every top-level named struct type in the
// module, records its mutex layout and //lint:guard contracts, and
// reports malformed directives (unknown mutex name, struct without a
// mutex). Lock-guarded state lives in named types by convention — an
// anonymous or function-local struct cannot carry a guard contract.
// The second result is the set of declared guarded field names: a free
// syntactic pre-filter for the selector walk, which would otherwise pay
// a type lookup per selector module-wide.
func collectGuardSpecs(pass *ModulePass) (map[string]*guardSpec, map[string]bool) {
	specs := map[string]*guardSpec{}
	guarded := map[string]bool{}
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			collectFileGuards(pass, pkg, f, specs, guarded)
		}
	}
	return specs, guarded
}

func collectFileGuards(pass *ModulePass, pkg *Package, f *ast.File, specs map[string]*guardSpec, guarded map[string]bool) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, s := range gd.Specs {
			ts, ok := s.(*ast.TypeSpec)
			if !ok {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || st.Fields == nil {
				continue
			}
			obj := pkg.Info.Defs[ts.Name]
			if obj == nil {
				continue
			}
			key, stT := structKeyOf(obj.Type())
			if key == "" {
				continue
			}
			mutexes, embedded := structMutexes(stT)
			if len(mutexes) == 0 {
				// No spec entry for lock-free structs — the selector
				// walk never needs one. Directives on them are still
				// malformed and still reported.
				for _, field := range st.Fields.List {
					if _, pos, ok := fieldGuardDirective(field); ok {
						pass.Reportf(pos, "%s on a field of %s, which has no sync.Mutex/RWMutex field", GuardDirective, classDisplay(key))
					}
				}
				continue
			}
			spec := specs[key]
			if spec == nil {
				spec = &guardSpec{embedded: embedded, explicit: map[string]string{}}
				specs[key] = spec
			}
			for _, field := range st.Fields.List {
				name, pos, ok := fieldGuardDirective(field)
				if !ok {
					continue
				}
				switch {
				case !mutexes[name]:
					pass.Reportf(pos, "%s names %q, which is not a sync.Mutex/RWMutex field of %s (have %s)", GuardDirective, name, classDisplay(key), strings.Join(sortedKeys(mutexes), ", "))
				case len(field.Names) == 0:
					pass.Reportf(pos, "%s cannot guard an embedded field", GuardDirective)
				default:
					for _, id := range field.Names {
						spec.explicit[id.Name] = name
						guarded[id.Name] = true
					}
				}
			}
		}
	}
}

// fieldGuardDirective extracts the mutex name of a //lint:guard
// directive on a struct field (doc comment or same-line comment).
func fieldGuardDirective(field *ast.Field) (name string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, found := strings.CutPrefix(c.Text, GuardDirective)
			if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return "", c.Pos(), true // malformed: reported as unknown ""
			}
			return fields[0], c.Pos(), true
		}
	}
	return "", token.NoPos, false
}

// ---------------------------------------------------------------------
// Must-held lockset analysis over one function's CFG.

// heldLock is one lock known to be held at a program point.
type heldLock struct {
	path  string // instance path in this function, e.g. "j.mu"
	class string // module-wide class key, e.g. "because/internal/serve.job.mu"
	pos   token.Pos
}

// lockOp is one acquire/release event inside a basic block.
type lockOp struct {
	pos     token.Pos
	acquire bool
	lock    heldLock
}

// lockFlow is the solved must-held problem for one function unit
// (declaration or literal): in[i] is the lockset at entry of block i,
// nil meaning "top" (not yet reached / unreachable). A unit with no
// mutex operations and an empty entry lockset is trivial: no CFG is
// built and every position trivially holds nothing — the fast path
// almost every function in the module takes.
type lockFlow struct {
	trivial bool
	g       *funcCFG
	ops     map[int][]lockOp
	in      []map[string]heldLock
}

// emptyHeld is the shared answer for trivial units; callers never
// mutate a heldAt result.
var emptyHeld = map[string]heldLock{}

// trivialFlow is the shared solution for units that hold no lock at
// entry and contain no mutex operation — the vast majority.
var trivialFlow = &lockFlow{trivial: true}

// heldAtSite returns the locks held at a blocking site. A select
// statement is not a CFG node (its comm clauses are): probe the lockset
// at the first clause, which inherits the head block's out-state.
func (lf *lockFlow) heldAtSite(site ast.Node) map[string]heldLock {
	h := lf.heldAt(site.Pos())
	if sel, ok := site.(*ast.SelectStmt); ok {
		for _, cl := range sel.Body.List {
			if h != nil {
				break
			}
			if comm := cl.(*ast.CommClause).Comm; comm != nil {
				h = lf.heldAt(comm.Pos())
			}
		}
	}
	return h
}

// heldAt returns the locks held just before pos (nil when the position
// is unreachable or outside the body).
func (lf *lockFlow) heldAt(pos token.Pos) map[string]heldLock {
	if lf.trivial {
		return emptyHeld
	}
	blk, _ := lf.g.blockAt(pos)
	if blk == nil || lf.in[blk.index] == nil {
		return nil
	}
	base := lf.in[blk.index]
	ops := lf.ops[blk.index]
	n := 0
	for n < len(ops) && ops[n].pos < pos {
		n++
	}
	if n == 0 {
		// No lock ops between block entry and pos: the in-state is the
		// answer, and callers never mutate it — no copy needed.
		return base
	}
	held := make(map[string]heldLock, len(base))
	for k, v := range base {
		held[k] = v
	}
	for _, op := range ops[:n] {
		applyLockOp(held, op)
	}
	return held
}

func applyLockOp(held map[string]heldLock, op lockOp) {
	if op.acquire {
		held[op.lock.path] = op.lock
	} else {
		delete(held, op.lock.path)
	}
}

// lockFlowFor builds the must-held solution for unit, a FuncDecl or
// FuncLit inside n's declaration (which names local lock classes and
// carries the Locked-suffix entry assumption), over the unit's cached
// CFG. A node whose body names no Lock/Unlock-family method has trivial
// units unless a Locked suffix seeds the entry lockset.
func lockFlowFor(n *funcNode, unit ast.Node) *lockFlow {
	pkg, decl := n.pkg, n.decl
	entry := entryHeld(pkg, unit, decl)
	if len(entry) == 0 && !n.mutexOps {
		return trivialFlow
	}
	if entry == nil {
		entry = map[string]heldLock{}
	}
	g := pkg.flowFor(unit).g
	lf := &lockFlow{g: g, ops: map[int][]lockOp{}, in: make([]map[string]heldLock, len(g.blocks))}
	for _, blk := range g.blocks {
		var ops []lockOp
		for _, n := range blk.nodes {
			ops = append(ops, collectLockOps(pkg, n, declName(decl))...)
		}
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].pos < ops[j].pos })
		lf.ops[blk.index] = ops
	}
	lf.solve(entry)
	return lf
}

func declName(decl *ast.FuncDecl) string {
	if decl == nil {
		return "func"
	}
	return decl.Name.Name
}

// entryHeld is the lockset assumed on entry: for a method whose name
// ends in "Locked", every mutex field of its (named) receiver.
func entryHeld(pkg *Package, unit ast.Node, decl *ast.FuncDecl) map[string]heldLock {
	if unit != decl || decl == nil || decl.Recv == nil || len(decl.Recv.List) == 0 {
		return nil
	}
	if !strings.HasSuffix(decl.Name.Name, "Locked") {
		return nil
	}
	names := decl.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return nil
	}
	recv, ok := pkg.Info.Defs[names[0]].(*types.Var)
	if !ok {
		return nil
	}
	key, st := structKeyOf(recv.Type())
	if st == nil {
		return nil
	}
	mutexes, embedded := structMutexes(st)
	held := make(map[string]heldLock, len(mutexes))
	for m := range mutexes {
		path := lockPath(names[0].Name, m, embedded[m])
		held[path] = heldLock{path: path, class: key + "." + m, pos: decl.Name.Pos()}
	}
	return held
}

// lockPath is the held-set key of mutex field m on the value at base:
// "base.m", or base itself when the mutex is embedded (promoted Lock).
func lockPath(base, m string, embedded bool) string {
	if embedded {
		return base
	}
	return base + "." + m
}

// collectLockOps extracts mutex acquire/release calls from one block
// node, skipping defers (they run at exit) and nested function
// literals (their bodies have their own lockFlow).
func collectLockOps(pkg *Package, n ast.Node, enclosing string) []lockOp {
	var ops []lockOp
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.DeferStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			x, method := mutexOp(pkg, node)
			if x == nil {
				return true
			}
			path := exprPath(x)
			if path == "" {
				return true
			}
			op := lockOp{
				pos:     node.Pos(),
				acquire: method == "Lock" || method == "RLock" || method == "TryLock" || method == "TryRLock",
				lock:    heldLock{path: path, class: lockClass(pkg, x, enclosing), pos: node.Pos()},
			}
			ops = append(ops, op)
		}
		return true
	})
	return ops
}

// mutexOp returns the receiver expression and method name when call is
// a sync.Mutex/RWMutex lock-family method call.
func mutexOp(pkg *Package, call *ast.CallExpr) (ast.Expr, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	if !isLockMethod(sel.Sel.Name) { // syntactic pre-filter before the Uses lookup
		return nil, ""
	}
	fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || !isNamed(sig.Recv().Type(), "sync", "Mutex", "RWMutex") {
		return nil, ""
	}
	return sel.X, fn.Name()
}

// isLockMethod reports whether name is a sync.Mutex/RWMutex acquire or
// release method name.
func isLockMethod(name string) bool {
	switch name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
		return true
	}
	return false
}

// lockClass names the module-wide class of the lock expression x
// ("j.mu" → "pkgpath.job.mu"): struct mutex fields key by their
// declaring type, package-level vars by the var, locals by enclosing
// function. Unresolvable expressions return "".
func lockClass(pkg *Package, x ast.Expr, enclosing string) string {
	if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
		if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			if key, _ := structKeyOf(s.Recv()); key != "" {
				return key + "." + sel.Sel.Name
			}
		}
		// Anonymous-struct field (package-level var like loadCache.mu) or
		// qualified package var (pkg.Mu): fall back to the base identifier.
		base, _ := ast.Unparen(baseIdent(sel)).(*ast.Ident)
		if base == nil {
			return ""
		}
		return identClass(pkg, base, exprPath(x), enclosing)
	}
	if id, ok := ast.Unparen(x).(*ast.Ident); ok {
		return identClass(pkg, id, id.Name, enclosing)
	}
	return ""
}

func baseIdent(e ast.Expr) ast.Expr {
	for {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return e
		}
		e = sel.X
	}
}

func identClass(pkg *Package, id *ast.Ident, path, enclosing string) string {
	v, _ := pkg.Info.Uses[id].(*types.Var)
	if v == nil || v.Pkg() == nil {
		return ""
	}
	if v.Parent() == v.Pkg().Scope() { // package-level var
		return v.Pkg().Path() + "." + path
	}
	return v.Pkg().Path() + "." + enclosing + "." + path
}

// solve runs the forward must-analysis: in[b] is the intersection of
// every predecessor's out-set; nil is top (identity for intersection).
func (lf *lockFlow) solve(entry map[string]heldLock) {
	lf.in[lf.g.entry.index] = entry
	out := func(i int) map[string]heldLock {
		if lf.in[i] == nil {
			return nil
		}
		o := make(map[string]heldLock, len(lf.in[i]))
		for k, v := range lf.in[i] {
			o[k] = v
		}
		for _, op := range lf.ops[i] {
			applyLockOp(o, op)
		}
		return o
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range lf.g.blocks {
			if blk.index == lf.g.entry.index {
				continue
			}
			var newIn map[string]heldLock
			top := true
			for _, p := range blk.preds {
				po := out(p)
				if po == nil {
					continue
				}
				if top {
					newIn, top = po, false
					continue
				}
				for k := range newIn {
					if _, ok := po[k]; !ok {
						delete(newIn, k)
					}
				}
			}
			if top {
				continue
			}
			if !heldEqual(lf.in[blk.index], newIn) {
				lf.in[blk.index] = newIn
				changed = true
			}
		}
	}
}

func heldEqual(a, b map[string]heldLock) bool {
	if a == nil || len(a) != len(b) {
		return a == nil && b == nil
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// sortedHeld renders a held-set deterministically, innermost (latest
// acquisition) first.
func sortedHeld(held map[string]heldLock) []heldLock {
	out := make([]heldLock, 0, len(held))
	for _, h := range held {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos != out[j].pos {
			return out[i].pos > out[j].pos
		}
		return out[i].path < out[j].path
	})
	return out
}

// ---------------------------------------------------------------------
// The walk: guarded fields, blocking sites, order edges.

// lockEdge is one acquisition-order edge with its first evidence.
type lockEdge struct {
	from, to heldLock
	pkg      *Package
	pos      token.Pos // where `to` is acquired (or the call reaching it)
	via      *funcNode // non-nil when acquired inside a callee
	viaClass string
}

type lockChecker struct {
	pass    *ModulePass
	sums    *summaries // blocking/acquire facts and acquired lock classes
	specs   map[string]*guardSpec
	guarded map[string]bool // declared //lint:guard field names
	edges   map[[2]string]*lockEdge
}

// unitWalker visits lockset units — declaration bodies and nested
// function literals — as a reusable ast.Visitor: one instance serves
// every function node, so the walk allocates nothing per function. The
// enclosing unit and its flow are fields saved and restored around each
// nested unit instead of being re-derived per node from an ancestor
// stack. Deferred calls are skipped (deferred work runs at exit, after
// this body's unlocks), but a function literal inside a defer is still
// its own unit and gets walked.
type unitWalker struct {
	lc    *lockChecker
	n     *funcNode
	unit  ast.Node
	lf    *lockFlow
	block blockingSites
}

func (w *unitWalker) walk(n *funcNode) {
	w.n = n
	w.block.reset(n.pkg)
	w.enter(n.decl, n.decl.Body)
}

// enter walks body as the unit's scope, restoring the previous unit
// context afterwards. A literal inside a trivial unit is trivial too:
// literals hold nothing on entry, and the node's probe found no mutex
// op anywhere in its body.
func (w *unitWalker) enter(unit ast.Node, body *ast.BlockStmt) {
	prevUnit, prevLf := w.unit, w.lf
	w.unit = unit
	if prevLf == nil || !prevLf.trivial {
		w.lf = lockFlowFor(w.n, unit)
	}
	ast.Walk(w, body)
	w.unit, w.lf = prevUnit, prevLf
}

func (w *unitWalker) Visit(node ast.Node) ast.Visitor {
	lc, pkg, lf := w.lc, w.n.pkg, w.lf
	switch n := node.(type) {
	case *ast.DeferStmt:
		ast.Inspect(n.Call, func(c ast.Node) bool {
			if lit, ok := c.(*ast.FuncLit); ok {
				w.enter(lit, lit.Body)
				return false
			}
			return true
		})
		return nil
	case *ast.FuncLit:
		w.enter(n, n.Body)
		return nil
	case *ast.SelectorExpr:
		lc.checkGuarded(pkg, n, w.unit, lf)
	}
	// Nothing is ever held in a trivial unit, so no blocking site in it
	// can be reported; skip the classification.
	if !lf.trivial {
		if desc := w.block.site(node); desc != "" {
			lc.reportBlocking(pkg, node.Pos(), desc, lf.heldAtSite(node))
			return w
		}
	}
	if call, ok := node.(*ast.CallExpr); ok {
		lc.checkCall(pkg, call, w.n.decl, lf)
	}
	return w
}

// checkGuarded enforces a declared //lint:guard contract at one direct
// field selection: the named mutex must be held on the same value,
// unless that value was just allocated in this unit.
func (lc *lockChecker) checkGuarded(pkg *Package, sel *ast.SelectorExpr, unit ast.Node, lf *lockFlow) {
	field := sel.Sel.Name
	if !lc.guarded[field] {
		return // syntactic gate: most selectors module-wide name no guarded field
	}
	s := pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal || len(s.Index()) != 1 {
		return
	}
	key, _ := structKeyOf(s.Recv())
	spec := lc.specs[key]
	if spec == nil {
		return
	}
	m, ok := spec.explicit[field]
	if !ok {
		return
	}
	access, lock := field, "its receiver."+m
	if base := exprPath(sel.X); base != "" {
		if _, held := lf.heldAt(sel.Pos())[lockPath(base, m, spec.embedded[m])]; held || lc.baseIsFresh(pkg, sel, unit) {
			return
		}
		access, lock = base+"."+field, base+"."+m
	}
	lc.pass.Reportf(sel.Sel.Pos(), "access to %s without holding %s per its %s %s contract: lock it, or annotate //lint:allow lockcheck with the synchronisation story", access, lock, GuardDirective, m)
}

// baseIsFresh reports whether the access base is a local variable whose
// every reaching definition allocates the value in this function — the
// constructor idiom, where no other goroutine can see the struct yet.
func (lc *lockChecker) baseIsFresh(pkg *Package, sel *ast.SelectorExpr, unit ast.Node) bool {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	v, _ := pkg.Info.Uses[id].(*types.Var)
	if v == nil {
		return false
	}
	fl := pkg.flowFor(unit)
	if fl.hasEntryDef(v) {
		return false
	}
	defs := fl.defsAt(v, sel.Pos())
	if len(defs) == 0 {
		return false
	}
	for _, d := range defs {
		if d.kind != defAssign || !allocExpr(d.rhs) {
			return false
		}
	}
	return true
}

// allocExpr recognises fresh-allocation right-hand sides: composite
// literals (possibly behind &) and new(T).
func allocExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		return e.Op == token.AND && allocExpr(e.X)
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}

// ---------------------------------------------------------------------
// Call sites: blocking, Locked-suffix discipline, order edges.

// checkCall handles a call that does not block by itself: a lock
// acquisition, a *Locked method call, or a call whose callee's summary
// may block or acquire while locks are held.
func (lc *lockChecker) checkCall(pkg *Package, call *ast.CallExpr, decl *ast.FuncDecl, lf *lockFlow) {
	if x, method := mutexOp(pkg, call); x != nil {
		if method != "Unlock" && method != "RUnlock" {
			lc.checkAcquire(pkg, call, x, decl, lf.heldAt(call.Pos()))
		}
		return
	}
	h := lf.heldAt(call.Pos())
	lc.checkLockedSuffixCall(pkg, call, h)
	if len(h) == 0 {
		return
	}
	for _, callee := range lc.pass.graph.resolve(calledFunc(pkg, call)) {
		// Skip self-resolution (direct recursion, or CHA matching an
		// interface call back to the enclosing method, the lockedImporter
		// pattern): mirrors the summary solver's self-edge skip.
		if callee.decl == decl {
			continue
		}
		if lc.reportCallEffects(pkg, call, callee, h) {
			break
		}
	}
}

// checkAcquire handles a direct Lock/RLock while other locks are held:
// re-locking the same path is a self-deadlock; every (held → acquired)
// class pair feeds the order graph.
func (lc *lockChecker) checkAcquire(pkg *Package, call *ast.CallExpr, x ast.Expr, decl *ast.FuncDecl, held map[string]heldLock) {
	path := exprPath(x)
	if path == "" {
		return
	}
	if prev, ok := held[path]; ok {
		pos := pkg.Fset.Position(prev.pos)
		lc.pass.Reportf(call.Pos(), "%s is locked again while already held (acquired at %s:%d): self-deadlock", path, shortFile(pos.Filename), pos.Line)
		return
	}
	class := lockClass(pkg, x, declName(decl))
	if class == "" {
		return
	}
	to := heldLock{path: path, class: class, pos: call.Pos()}
	for _, h := range sortedHeld(held) {
		if h.class == class {
			continue // cross-instance same-class nesting (hand-over-hand): out of scope
		}
		lc.addEdge(pkg, h, to, call.Pos(), nil, "")
	}
}

// reportCallEffects flags a call made under a held lock whose callee
// summary blocks, and feeds callee acquisitions into the order graph.
// Returns true when a blocking diagnostic was emitted (one per site).
func (lc *lockChecker) reportCallEffects(pkg *Package, call *ast.CallExpr, callee *funcNode, held map[string]heldLock) bool {
	if !lc.sums.has(callee, factMuAcquire) && !lc.sums.has(callee, factBlock) {
		return false // fast path: the callee's summary is lock-silent
	}
	hs := sortedHeld(held)
	for _, class := range sortedKeys(lc.sums.sum[callee.id].classes) {
		for _, h := range hs {
			if h.class == class {
				lc.pass.Reportf(call.Pos(), "call to %s while holding %s may acquire %s again (%s): lock-class reentry deadlocks unless instances are provably distinct", callee.shortName(), h.path, classDisplay(class), lc.sums.explainClass(callee, class))
				continue
			}
			lc.addEdge(pkg, h, heldLock{class: class, pos: call.Pos()}, call.Pos(), callee, class)
		}
	}
	if lc.sums.has(callee, factBlock) {
		lc.pass.Reportf(call.Pos(), "call to %s while holding %s reaches a blocking operation (%s): move it outside the critical section, or annotate //lint:allow lockcheck with why it cannot block", callee.shortName(), hs[0].path, lc.sums.explain(callee, factBlock))
		return true
	}
	return false
}

// checkLockedSuffixCall enforces the naming convention from the other
// side: calling a *Locked method requires holding the receiver's mutex.
func (lc *lockChecker) checkLockedSuffixCall(pkg *Package, call *ast.CallExpr, held map[string]heldLock) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !strings.HasSuffix(sel.Sel.Name, "Locked") {
		return
	}
	fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return
	}
	_, st := structKeyOf(sig.Recv().Type())
	if st == nil {
		return
	}
	mutexes, embedded := structMutexes(st)
	if len(mutexes) == 0 {
		return
	}
	base := exprPath(sel.X)
	if base == "" {
		return
	}
	for m := range mutexes {
		if _, ok := held[lockPath(base, m, embedded[m])]; ok {
			return
		}
	}
	lc.pass.Reportf(call.Pos(), "call to %s.%s without holding %s.%s: the Locked suffix requires the caller to hold the receiver's mutex", base, sel.Sel.Name, base, sortedKeys(mutexes)[0])
}

// blockingSites is the one classifier of blocking operations, shared by
// the summary walk (which records them as factBlock) and the
// held-lock walk (which reports them while a lock is held): channel
// sends and receives, selects, and calls that block by themselves. A
// select's comm statements are credited to the select rather than
// double-counted — the pre-order walk sees the SelectStmt before its
// clauses, so the comm-op set fills in just in time.
type blockingSites struct {
	pkg     *Package
	http    bool // pkg imports net/http (see directBlockingCall)
	commOps map[ast.Node]bool
}

// reset starts a walk over code of pkg.
func (b *blockingSites) reset(pkg *Package) {
	if b.pkg != pkg {
		b.pkg, b.http = pkg, importsHTTP(pkg)
	}
	clear(b.commOps)
}

// site describes what node blocks on ("channel send", "select", …), or
// returns "" when node does not block by itself.
func (b *blockingSites) site(node ast.Node) string {
	switch n := node.(type) {
	case *ast.SendStmt:
		if !b.commOps[n] {
			return "channel send"
		}
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !b.commOps[n] {
			if recvIsCtxDone(b.pkg, n) {
				return "wait on ctx.Done()"
			}
			return "channel receive"
		}
	case *ast.SelectStmt:
		if b.commOps == nil {
			b.commOps = map[ast.Node]bool{}
		}
		markCommOps(n, b.commOps)
		return "select"
	case *ast.CallExpr:
		return directBlockingCall(b.pkg, n, b.http)
	}
	return ""
}

// directBlockingCall classifies call expressions that block by
// themselves: close, time.Sleep, WaitGroup/Cond waits, HTTP writes.
// Only a package importing net/http (http) can hold an expression typed
// http.ResponseWriter/Flusher, which saves a TypeOf probe per argument
// everywhere else.
func directBlockingCall(pkg *Package, call *ast.CallExpr, http bool) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := pkg.Info.Uses[fun].(*types.Builtin); ok && fun.Name == "close" {
			return "channel close (wakes every waiter inside the critical section)"
		}
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Sleep" || fun.Sel.Name == "Wait" {
			if fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func); fn != nil && fn.Pkg() != nil {
				if fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
					return "time.Sleep"
				}
				if fn.Pkg().Path() == "sync" && fn.Name() == "Wait" {
					return "sync." + namedObj(fn.Type().(*types.Signature).Recv().Type()).Name() + ".Wait"
				}
			}
		}
		if http && isNamed(pkg.Info.TypeOf(fun.X), "net/http", "ResponseWriter", "Flusher") {
			return "write to the http.ResponseWriter"
		}
	}
	if http {
		for _, arg := range call.Args {
			if isNamed(pkg.Info.TypeOf(arg), "net/http", "ResponseWriter", "Flusher") {
				return "write to the http.ResponseWriter"
			}
		}
	}
	return ""
}

// importsHTTP reports whether net/http is a direct import of pkg.
func importsHTTP(pkg *Package) bool {
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == "net/http" {
			return true
		}
	}
	return false
}

func (lc *lockChecker) reportBlocking(pkg *Package, pos token.Pos, desc string, held map[string]heldLock) {
	if len(held) == 0 {
		return
	}
	h := sortedHeld(held)[0]
	hp := pkg.Fset.Position(h.pos)
	lc.pass.Reportf(pos, "%s while holding %s (acquired at %s:%d): blocking under a lock stalls every contender — move it outside the critical section, or annotate //lint:allow lockcheck with why it cannot block", desc, h.path, shortFile(hp.Filename), hp.Line)
}

func (lc *lockChecker) addEdge(pkg *Package, from, to heldLock, pos token.Pos, via *funcNode, viaClass string) {
	key := [2]string{from.class, to.class}
	if _, ok := lc.edges[key]; ok {
		return
	}
	lc.edges[key] = &lockEdge{from: from, to: to, pkg: pkg, pos: pos, via: via, viaClass: viaClass}
}

// ---------------------------------------------------------------------
// Cycle detection over the acquisition-order graph.

// reportCycles flags every edge that sits on a cycle, at its own
// acquisition site, citing the conflicting chain's evidence — the two
// halves of the inversion each carry the other's coordinates.
func (lc *lockChecker) reportCycles() {
	adj := map[string][]string{}
	var keys [][2]string
	for k := range lc.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	for _, k := range keys {
		e := lc.edges[k]
		path := findPath(adj, k[1], k[0])
		if len(path) < 2 {
			continue
		}
		// path is k[1] … k[0]; the closing edge re-acquires k[0].
		closing := lc.edges[[2]string{path[len(path)-2], path[len(path)-1]}]
		cycle := renderCycle(append([]string{k[0]}, path...))
		cp := closing.pkg.Fset.Position(closing.pos)
		lc.pass.Reportf(e.pos, "lock acquisition order cycle %s: %s is acquired here while %s is held%s, but the reverse order is taken at %s:%d%s — pick one module-wide order, or annotate //lint:allow lockcheck with the invariant that rules the deadlock out", cycle, classDisplay(e.to.class), classDisplay(e.from.class), e.viaSuffix(lc), shortFile(cp.Filename), cp.Line, closing.viaSuffix(lc))
	}
}

// viaSuffix renders how an interprocedural edge reaches its
// acquisition (" (via serve.evictLocked: j.mu.Lock at jobs.go:42)").
func (e *lockEdge) viaSuffix(lc *lockChecker) string {
	if e.via == nil {
		return ""
	}
	return " (" + lc.sums.explainClass(e.via, e.viaClass) + ")"
}

// renderCycle prints a class cycle with short display names.
func renderCycle(classes []string) string {
	parts := make([]string, len(classes))
	for i, c := range classes {
		parts[i] = classDisplay(c)
	}
	return strings.Join(parts, " → ")
}

// findPath returns a node path from start to goal over adj (BFS,
// deterministic neighbour order), or nil.
func findPath(adj map[string][]string, start, goal string) []string {
	if start == goal {
		return []string{start}
	}
	parent := map[string]string{start: start}
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if _, seen := parent[next]; seen {
				continue
			}
			parent[next] = cur
			if next == goal {
				var path []string
				for n := goal; ; n = parent[n] {
					path = append([]string{n}, path...)
					if n == start {
						return path
					}
				}
			}
			queue = append(queue, next)
		}
	}
	return nil
}

// markCommOps records the send/receive operations that are sel's comm
// statements, so they are not double-counted below the select.
func markCommOps(sel *ast.SelectStmt, ops map[ast.Node]bool) {
	for _, cl := range sel.Body.List {
		comm := cl.(*ast.CommClause).Comm
		if comm == nil {
			continue
		}
		ast.Inspect(comm, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.SendStmt:
				ops[c] = true
			case *ast.UnaryExpr:
				if c.Op == token.ARROW {
					ops[c] = true
				}
			}
			return true
		})
	}
}
