package lint

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow half of the lint package's dataflow
// engine (see dataflow.go for the reaching-definitions half): an
// intraprocedural CFG over one function body, built directly on go/ast.
// Each basic block holds the statements (and the condition/range
// expressions of the control statements that end it) in execution order;
// edges follow Go's structured control flow, including break/continue
// (labeled or not), goto, fallthrough, select, and else-if chains.
// Function literals are deliberately opaque: a closure body runs at call
// time, not inline, so its statements belong to the closure's own CFG.

// block is one basic block: straight-line nodes followed by a branch to
// the successor blocks.
type block struct {
	index int
	nodes []ast.Node
	succs []*block
	// preds lists the predecessor indices in block order, computed once
	// by buildCFG for both the reaching-definitions and must-held solvers.
	preds []int
	// reachable is filled in by funcCFG.markReachable: true when some
	// path from the function entry reaches this block.
	reachable bool
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	entry  *block
	blocks []*block
}

// buildCFG constructs the CFG of body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{g: &funcCFG{}, labels: map[string]*block{}}
	b.cur = b.newBlock()
	b.g.entry = b.cur
	b.stmt(body, "")
	b.resolveGotos()
	for _, blk := range b.g.blocks {
		for _, s := range blk.succs {
			s.preds = append(s.preds, blk.index)
		}
	}
	b.g.markReachable()
	return b.g
}

// markReachable flags every block reachable from the entry.
func (g *funcCFG) markReachable() {
	var visit func(*block)
	visit = func(blk *block) {
		if blk.reachable {
			return
		}
		blk.reachable = true
		for _, s := range blk.succs {
			visit(s)
		}
	}
	visit(g.entry)
}

// blockAt returns the block and node index covering pos: the block whose
// node list contains a node whose source range includes pos. The second
// result is the index of that node. Returns (nil, 0) when pos is not
// inside any block node (e.g. a position in the parameter list).
func (g *funcCFG) blockAt(pos token.Pos) (*block, int) {
	for _, blk := range g.blocks {
		for i, n := range blk.nodes {
			if n.Pos() <= pos && pos < n.End() {
				return blk, i
			}
		}
	}
	return nil, 0
}

// loopFrame records the jump targets one enclosing loop, switch or select
// statement offers to break/continue statements.
type loopFrame struct {
	label string
	brk   *block
	cont  *block // nil for switch/select: continue skips past them
}

type cfgBuilder struct {
	g   *funcCFG
	cur *block

	loops         []loopFrame
	labels        map[string]*block
	gotos         []pendingGoto
	fallthroughTo *block
}

type pendingGoto struct {
	label string
	from  *block
}

func (b *cfgBuilder) newBlock() *block {
	blk := &block{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *block) {
	from.succs = append(from.succs, to)
}

// add appends a straight-line node to the current block.
func (b *cfgBuilder) add(n ast.Node) {
	b.cur.nodes = append(b.cur.nodes, n)
}

// terminate parks the builder on a fresh, edgeless block: everything
// appended until the next join point is unreachable (code after return,
// break, goto).
func (b *cfgBuilder) terminate() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *block) {
	b.loops = append(b.loops, loopFrame{label: label, brk: brk, cont: cont})
}

func (b *cfgBuilder) popLoop() {
	b.loops = b.loops[:len(b.loops)-1]
}

// breakTarget finds the break destination for the given label ("" means
// innermost breakable statement).
func (b *cfgBuilder) breakTarget(label string) *block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if label == "" || b.loops[i].label == label {
			return b.loops[i].brk
		}
	}
	return nil
}

// continueTarget finds the continue destination (loops only).
func (b *cfgBuilder) continueTarget(label string) *block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if b.loops[i].cont == nil {
			continue // switch/select: continue belongs to the loop outside
		}
		if label == "" || b.loops[i].label == label {
			return b.loops[i].cont
		}
	}
	return nil
}

func (b *cfgBuilder) defineLabel(name string, blk *block) {
	b.labels[name] = blk
}

func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, target)
		}
	}
}

// stmt translates one statement into blocks and edges. label is the
// immediately enclosing statement label (for `L: for { ... break L }`).
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st, "")
		}

	case *ast.LabeledStmt:
		// A label is a join point: goto can jump here from anywhere in
		// the function, so the labeled statement starts a new block.
		lb := b.newBlock()
		b.edge(b.cur, lb)
		b.cur = lb
		b.defineLabel(s.Label.Name, lb)
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Cond)
		cond := b.cur
		after := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body, "")
		b.edge(b.cur, after)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else, "")
			b.edge(b.cur, after)
		} else {
			b.edge(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		after := b.newBlock()
		if s.Cond != nil {
			b.edge(head, after) // `for { ... }` only exits through break
		}
		cont := head
		var post *block
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		b.pushLoop(label, after, cont)
		b.stmt(s.Body, "")
		b.popLoop()
		b.edge(b.cur, cont)
		if post != nil {
			b.cur = post
			b.stmt(s.Post, "")
			b.edge(b.cur, head)
		}
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		b.add(s) // carries the range expression and the key/value definitions
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.cur = body
		b.pushLoop(label, after, head)
		b.stmt(s.Body, "")
		b.popLoop()
		b.edge(b.cur, head)
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body, label)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Assign)
		b.caseClauses(s.Body, label)

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.pushLoop(label, after, nil)
		for _, clause := range s.Body.List {
			comm := clause.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			if comm.Comm != nil {
				b.stmt(comm.Comm, "")
			}
			for _, st := range comm.Body {
				b.stmt(st, "")
			}
			b.edge(b.cur, after)
		}
		b.popLoop()
		// An empty select blocks forever: after keeps no incoming edge
		// and is correctly marked unreachable.
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.terminate()

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.breakTarget(labelName(s.Label)); t != nil {
				b.edge(b.cur, t)
			}
		case token.CONTINUE:
			if t := b.continueTarget(labelName(s.Label)); t != nil {
				b.edge(b.cur, t)
			}
		case token.GOTO:
			name := labelName(s.Label)
			if t, ok := b.labels[name]; ok {
				b.edge(b.cur, t)
			} else {
				b.gotos = append(b.gotos, pendingGoto{label: name, from: b.cur})
			}
		case token.FALLTHROUGH:
			if b.fallthroughTo != nil {
				b.edge(b.cur, b.fallthroughTo)
			}
		}
		b.terminate()

	case *ast.EmptyStmt:
		// nothing

	default:
		// DeclStmt, AssignStmt, ExprStmt, IncDecStmt, SendStmt, GoStmt,
		// DeferStmt: straight-line nodes.
		b.add(s)
	}
}

// caseClauses builds the shared switch/type-switch clause structure: every
// clause body is a successor of the head block, fallthrough chains to the
// next clause, and a missing default adds a direct head→after edge.
func (b *cfgBuilder) caseClauses(body *ast.BlockStmt, label string) {
	head := b.cur
	after := b.newBlock()
	b.pushLoop(label, after, nil)

	clauses := make([]*ast.CaseClause, 0, len(body.List))
	bodies := make([]*block, 0, len(body.List))
	hasDefault := false
	for _, cl := range body.List {
		clause := cl.(*ast.CaseClause)
		clauses = append(clauses, clause)
		blk := b.newBlock()
		b.edge(head, blk)
		bodies = append(bodies, blk)
		if clause.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	savedFallthrough := b.fallthroughTo
	for i, clause := range clauses {
		b.cur = bodies[i]
		for _, e := range clause.List {
			b.add(e)
		}
		b.fallthroughTo = nil
		if i+1 < len(bodies) {
			b.fallthroughTo = bodies[i+1]
		}
		for _, st := range clause.Body {
			b.stmt(st, "")
		}
		b.edge(b.cur, after)
	}
	b.fallthroughTo = savedFallthrough
	b.popLoop()
	b.cur = after
}

func labelName(id *ast.Ident) string {
	if id == nil {
		return ""
	}
	return id.Name
}
