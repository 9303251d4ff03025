package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the reaching-definitions half of the lint package's
// dataflow engine (cfg.go builds the control-flow graphs it runs on).
// For every function a flow records each definition of each local
// variable — parameters, :=/= assignments, range variables, inc/dec —
// and solves the classic forward may-analysis: which definitions of v
// can reach program point P. Analyzers query it through flow.defsAt and
// the derivation helpers in the analyzer files (splitDerivedAt in
// rngshare.go, ctxDerived in ctxflow.go).
//
// The engine is deliberately intraprocedural and treats function
// literals as opaque values: a closure's body has its own CFG and flow,
// and writes it makes to captured variables are invisible to the
// enclosing function's analysis. That keeps the engine simple and errs
// toward reporting (a def the closure might overwrite still counts).

// defKind classifies how a definition produces its value.
type defKind int

const (
	// defOpaque covers definitions whose value the engine does not trace:
	// parameters, receivers, named results, range variables, inc/dec and
	// op-assign updates.
	defOpaque defKind = iota
	// defAssign is a 1:1 assignment; rhs holds the defining expression.
	defAssign
	// defMulti is one LHS of a multi-value assignment (x, y := f()); rhs
	// holds the call and idx which result position feeds this variable.
	defMulti
)

// definition is one static definition of one variable.
type definition struct {
	v    *types.Var
	kind defKind
	rhs  ast.Expr
	idx  int
	// node is the defining statement (token.NoPos-free anchor for
	// "which defs reach this def" recursion); nil for entry definitions
	// (parameters and named results).
	node ast.Node
}

// flow is the solved reaching-definitions problem for one function.
type flow struct {
	pkg  *Package
	g    *funcCFG
	defs []*definition
	// defsOf indexes defs by variable, byNode by defining statement.
	defsOf map[*types.Var][]int
	byNode map[ast.Node][]int
	// in[i] is the bitset of definitions reaching the entry of block i.
	in []bitset
	// entryDefs are the parameter/receiver/named-result definitions, live
	// at the function entry.
	entryDefs []int
}

// funcParts extracts the body and the declaration parts (receiver,
// parameters, results) of a FuncDecl or FuncLit.
func funcParts(fn ast.Node) (body *ast.BlockStmt, fieldLists []*ast.FieldList) {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
		if fn.Recv != nil {
			fieldLists = append(fieldLists, fn.Recv)
		}
		fieldLists = append(fieldLists, fn.Type.Params)
		if fn.Type.Results != nil {
			fieldLists = append(fieldLists, fn.Type.Results)
		}
	case *ast.FuncLit:
		body = fn.Body
		fieldLists = append(fieldLists, fn.Type.Params)
		if fn.Type.Results != nil {
			fieldLists = append(fieldLists, fn.Type.Results)
		}
	}
	return body, fieldLists
}

// flowFor returns the (cached) dataflow solution for fn, a *ast.FuncDecl
// or *ast.FuncLit with a non-nil body. The cache lives on the Package and
// Run clears it, so every analyzer in one run shares the same CFGs and
// solutions.
func (p *Package) flowFor(fn ast.Node) *flow {
	if f, ok := p.flows[fn]; ok {
		return f
	}
	f := newFlow(p, fn)
	if p.flows == nil {
		p.flows = make(map[ast.Node]*flow)
	}
	p.flows[fn] = f
	return f
}

func newFlow(pkg *Package, fn ast.Node) *flow {
	body, fieldLists := funcParts(fn)
	f := &flow{
		pkg:    pkg,
		g:      buildCFG(body),
		defsOf: make(map[*types.Var][]int),
		byNode: make(map[ast.Node][]int),
	}

	// Entry definitions: receiver, parameters, named results.
	for _, fl := range fieldLists {
		for _, field := range fl.List {
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					f.entryDefs = append(f.entryDefs, f.addDef(&definition{v: v, kind: defOpaque}))
				}
			}
		}
	}
	// Block definitions, in node order.
	for _, blk := range f.g.blocks {
		for _, n := range blk.nodes {
			f.collectDefs(n)
		}
	}
	f.solve()
	return f
}

func (f *flow) addDef(d *definition) int {
	id := len(f.defs)
	f.defs = append(f.defs, d)
	f.defsOf[d.v] = append(f.defsOf[d.v], id)
	if d.node != nil {
		f.byNode[d.node] = append(f.byNode[d.node], id)
	}
	return id
}

// collectDefs records the definitions a single block node makes.
func (f *flow) collectDefs(n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		f.collectAssign(n)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				v, ok := f.pkg.Info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				d := &definition{v: v, kind: defOpaque, node: n}
				switch {
				case len(vs.Values) == len(vs.Names):
					d.kind, d.rhs = defAssign, vs.Values[i]
				case len(vs.Values) == 1:
					d.kind, d.rhs, d.idx = defMulti, vs.Values[0], i
				}
				f.addDef(d)
			}
		}
	case *ast.IncDecStmt:
		if v := f.lhsVar(n.X); v != nil {
			f.addDef(&definition{v: v, kind: defOpaque, node: n})
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e == nil {
				continue
			}
			if v := f.lhsVar(e); v != nil {
				f.addDef(&definition{v: v, kind: defOpaque, node: n})
			}
		}
	}
}

func (f *flow) collectAssign(n *ast.AssignStmt) {
	opAssign := n.Tok != token.ASSIGN && n.Tok != token.DEFINE
	for i, lhs := range n.Lhs {
		v := f.lhsVar(lhs)
		if v == nil {
			continue
		}
		d := &definition{v: v, kind: defOpaque, node: n}
		switch {
		case opAssign:
			// x += e: the new value mixes the old one; stay opaque.
		case len(n.Rhs) == len(n.Lhs):
			d.kind, d.rhs = defAssign, n.Rhs[i]
		case len(n.Rhs) == 1:
			d.kind, d.rhs, d.idx = defMulti, n.Rhs[0], i
		}
		f.addDef(d)
	}
}

// lhsVar resolves a plain-identifier assignment target to its variable.
// Selector, index and deref targets return nil: they mutate through a
// value the engine does not model, which only ever widens the def sets it
// reports (erring toward analysis noise, not silence).
func (f *flow) lhsVar(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := f.pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := f.pkg.Info.Uses[id].(*types.Var)
	return v
}

// solve runs the forward worklist iteration for reaching definitions.
func (f *flow) solve() {
	n := len(f.g.blocks)
	words := (len(f.defs) + 63) / 64
	gen := make([]bitset, n)
	kill := make([]bitset, n)
	out := make([]bitset, n)
	f.in = make([]bitset, n)
	for i, blk := range f.g.blocks {
		gen[i] = newBitset(words)
		kill[i] = newBitset(words)
		out[i] = newBitset(words)
		f.in[i] = newBitset(words)
		last := map[*types.Var]int{}
		for _, node := range blk.nodes {
			for _, id := range f.byNode[node] {
				d := f.defs[id]
				last[d.v] = id
				for _, other := range f.defsOf[d.v] {
					kill[i].set(other)
				}
			}
		}
		for _, id := range last {
			gen[i].set(id)
		}
	}
	entry := f.g.entry.index
	changed := true
	for changed {
		changed = false
		for i, blk := range f.g.blocks {
			newIn := newBitset(words)
			if i == entry {
				for _, id := range f.entryDefs {
					newIn.set(id)
				}
			}
			for _, p := range blk.preds {
				newIn.or(out[p])
			}
			if !newIn.equal(f.in[i]) {
				copy(f.in[i], newIn)
				changed = true
			}
			newOut := newBitset(words)
			copy(newOut, f.in[i])
			newOut.andNot(kill[i])
			newOut.or(gen[i])
			if !newOut.equal(out[i]) {
				copy(out[i], newOut)
				changed = true
			}
		}
	}
}

// hasEntryDef reports whether v is defined at the function entry — that
// is, v is a receiver, parameter or named result of this function.
func (f *flow) hasEntryDef(v *types.Var) bool {
	for _, id := range f.entryDefs {
		if f.defs[id].v == v {
			return true
		}
	}
	return false
}

// defsAt returns the definitions of v that can reach pos. An empty result
// means the engine has no definition for v here — v is declared outside
// this function (captured, package-level) or pos is outside the body.
func (f *flow) defsAt(v *types.Var, pos token.Pos) []*definition {
	blk, idx := f.g.blockAt(pos)
	if blk == nil {
		return nil
	}
	cur := newBitset((len(f.defs) + 63) / 64)
	copy(cur, f.in[blk.index])
	for _, node := range blk.nodes[:idx] {
		for _, id := range f.byNode[node] {
			for _, other := range f.defsOf[f.defs[id].v] {
				cur.clear(other)
			}
			cur.set(id)
		}
	}
	var out []*definition
	for _, id := range f.defsOf[v] {
		if cur.has(id) {
			out = append(out, f.defs[id])
		}
	}
	return out
}

// reachableAt reports whether pos sits in a block reachable from the
// function entry (false also when pos is outside every block, e.g. dead
// positions the CFG never recorded).
func (f *flow) reachableAt(pos token.Pos) bool {
	blk, _ := f.g.blockAt(pos)
	return blk != nil && blk.reachable
}

// bitset is a fixed-size bit vector.
type bitset []uint64

func newBitset(words int) bitset { return make(bitset, words) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b bitset) andNot(o bitset) {
	for i := range b {
		b[i] &^= o[i]
	}
}

func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}
