package lint

// Call-graph resolution tests: CHA interface dispatch and method-value
// go targets, and — the part the interprocedural analyzers actually
// depend on — that solved summaries propagate through both; plus the
// shared body walk's per-analyzer exemption and defer rules.

import (
	"go/ast"
	"strings"
	"testing"
)

// nodeByShortName finds the graph node rendered as pkgname.Func or
// pkgname.Type.Method.
func nodeByShortName(t *testing.T, g *callGraph, short string) *funcNode {
	t.Helper()
	for _, n := range g.nodes {
		if n.shortName() == short {
			return n
		}
	}
	t.Fatalf("node %s not in call graph", short)
	return nil
}

// TestInterfaceDispatchPropagatesSummaries: a call through an interface
// resolves by CHA to every module method of that name, and a fact two
// hops below one implementation reaches the dispatching caller.
func TestInterfaceDispatchPropagatesSummaries(t *testing.T) {
	pkg := loadFixturePkg(t, "callgraph")
	g := buildCallGraph([]*Package{pkg})
	sums := solveSummaries(g)

	caller := nodeByShortName(t, g, "callgraph.throughInterface")
	if len(caller.calls) != 1 {
		t.Fatalf("throughInterface has %d resolved call sites, want 1", len(caller.calls))
	}
	var callees []string
	for _, c := range caller.calls[0].callees {
		callees = append(callees, c.shortName())
	}
	want := map[string]bool{"callgraph.clockTicker.tick": true, "callgraph.quietTicker.tick": true}
	if len(callees) != 2 || !want[callees[0]] || !want[callees[1]] || callees[0] == callees[1] {
		t.Errorf("interface dispatch resolved to %v, want both tick methods", callees)
	}

	// Propagation: readClock (direct) → clockTicker.tick (static call) →
	// throughInterface (interface dispatch). quietTicker.tick stays clean.
	for short, wantClock := range map[string]bool{
		"callgraph.readClock":        true,
		"callgraph.clockTicker.tick": true,
		"callgraph.quietTicker.tick": false,
		"callgraph.throughInterface": true,
	} {
		if got := sums.has(nodeByShortName(t, g, short), factClock); got != wantClock {
			t.Errorf("%s clock summary = %v, want %v", short, got, wantClock)
		}
	}

	// The evidence chain walks the dispatch down to the direct site.
	chain := sums.explain(caller, factClock)
	if !strings.Contains(chain, "via ") || !strings.Contains(chain, "time.Now at graph.go:") {
		t.Errorf("evidence chain = %q, want a via-chain ending at the time.Now site", chain)
	}
}

// TestMethodValueSummaryPropagation: `f := c.tick; go f()` resolves
// through reaching definitions to the bound method, and the node looked
// up by its cross-universe symbol carries the propagated fact — the
// exact lookup goleak's namedDisciplined performs on a value launch.
func TestMethodValueSummaryPropagation(t *testing.T) {
	pkg := loadFixturePkg(t, "callgraph")
	g := buildCallGraph([]*Package{pkg})
	sums := solveSummaries(g)

	fd := funcDecl(t, pkg, "throughMethodValue")
	var gs *ast.GoStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if s, ok := n.(*ast.GoStmt); ok {
			gs = s
		}
		return true
	})
	if gs == nil {
		t.Fatal("no go statement in throughMethodValue")
	}
	id, ok := gs.Call.Fun.(*ast.Ident)
	if !ok {
		t.Fatalf("go target is %T, want *ast.Ident", gs.Call.Fun)
	}
	lit, fn := funcValueDef(pkg, gs, id, fd)
	if lit != nil || fn == nil || fn.Name() != "tick" {
		t.Fatalf("funcValueDef = (%v, %v), want the bound method tick", lit, fn)
	}
	node := g.bySym[funcSymbol(fn)]
	if node == nil {
		t.Fatalf("funcSymbol(%v) = %q not in graph", fn, funcSymbol(fn))
	}
	if node.shortName() != "callgraph.clockTicker.tick" {
		t.Errorf("method value resolved to %s, want callgraph.clockTicker.tick", node.shortName())
	}
	if !sums.has(node, factClock) {
		t.Error("resolved method's summary lacks the clock fact: propagation through the method value is broken")
	}
}

// TestWalkFactRules pins the shared body walk's per-analyzer rules: a
// declaration-level allow zeroes only its own analyzer's facts, a
// site-level allow drops only that site, and deferred statements feed
// every fact except blocking and acquisition.
func TestWalkFactRules(t *testing.T) {
	pkg := loadFixturePkg(t, "walkfacts")
	g := buildCallGraph([]*Package{pkg})
	sums := solveSummaries(g)
	for _, tc := range []struct {
		fn   string
		fact fact
		name string
		want bool
	}{
		{"hotExempt", factClock, "clock", true},
		{"hotExempt", factAlloc, "alloc", false},
		{"detExempt", factAlloc, "alloc", true},
		{"detExempt", factClock, "clock", false},
		{"deferUnlockClose", factBlock, "block", false},
		{"deferUnlockClose", factMuAcquire, "acquire", true},
		{"deferDone", factWGDone, "wg-done", true},
		{"allowedClose", factBlock, "block", false},
		{"plainClose", factBlock, "block", true},
	} {
		if got := sums.has(nodeByShortName(t, g, "walkfacts."+tc.fn), tc.fact); got != tc.want {
			t.Errorf("%s %s fact = %v, want %v", tc.fn, tc.name, got, tc.want)
		}
	}
}
