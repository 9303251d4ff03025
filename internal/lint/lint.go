// Package lint is BeCAUSe's dependency-free static-analysis framework:
// a small analyzer driver built on the stdlib go/ast, go/parser and
// go/types packages, plus the project-specific analyzers that enforce
// the repository's determinism, RNG-discipline and observability
// contracts (see the Determinism, MapOrder, RNGShare and ObsNil
// constructors).
//
// The framework deliberately avoids golang.org/x/tools: packages are
// loaded through `go list -export` (export data for type-checking comes
// straight from the build cache), diagnostics carry file:line:column
// positions, and findings can be suppressed at a single call site with a
//
//	//lint:allow <analyzer> <reason>
//
// comment on the flagged line or the line directly above it. Suppressed
// findings are tracked: a directive that no longer matches any finding
// is itself reported, so stale escape hatches cannot accumulate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named static check. Run inspects a loaded package and
// reports findings through the Pass; RunModule, when set instead, sees
// every loaded package at once (for cross-package surfaces like the wire
// schema). An analyzer sets exactly one of the two.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives. Lowercase, no spaces.
	Name string
	// Doc is a one-line description, shown by `becauselint -list`.
	Doc string
	// Run inspects pkg and reports findings via pass.Reportf. It is
	// called once per loaded package.
	Run func(pass *Pass)
	// RunModule is called once per lint run with every loaded package.
	RunModule func(pass *ModulePass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries a module-level analyzer's view of the whole load:
// every target package, type-checked against one shared FileSet, plus
// the run's call graph over them and its solved function summaries.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	graph *callGraph
	sums  *summaries
	diags *[]Diagnostic
}

// Fset returns the FileSet shared by every loaded package (empty loads
// fall back to a fresh set so position rendering never panics).
func (p *ModulePass) Fset() *token.FileSet {
	if len(p.Pkgs) > 0 {
		return p.Pkgs[0].Fset
	}
	return token.NewFileSet()
}

// Reportf records a module-level finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset().Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: which analyzer fired, where, and why.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`

	// File/Line/Col mirror Pos for the JSON output mode.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// String renders the diagnostic in the conventional
// file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// AllowDirective is the comment prefix that suppresses a finding.
const AllowDirective = "//lint:allow "

// allow is one parsed //lint:allow directive. A single comment may name
// several analyzers (`//lint:allow ctxflow,errflow reason`); it parses
// into one allow per analyzer, each tracked for staleness on its own.
type allow struct {
	analyzer string
	file     string
	line     int
	col      int
	// endLine extends coverage below the directive: when the next line
	// starts a multi-line simple statement, findings anywhere inside it
	// are covered (a call argument two lines into a wrapped call can
	// still be suppressed from above the statement).
	endLine int
	used    bool
}

// covers reports whether a is a directive for analyzer covering a
// finding at file:line: same line, the line directly above, or inside
// the multi-line simple statement below the directive.
func (a *allow) covers(analyzer, file string, line int) bool {
	return a.analyzer == analyzer && a.file == file &&
		(a.line == line || (line > a.line && line <= a.endLine))
}

// parseAllowDirective extracts the analyzer names from one comment's
// text ("//lint:allow ctxflow,errflow reason" → ["ctxflow", "errflow"]).
// It returns nil when the comment is not an allow directive or names no
// analyzer. Fuzzed by FuzzParseAllowDirective.
func parseAllowDirective(text string) []string {
	rest, ok := strings.CutPrefix(text, AllowDirective)
	if !ok {
		return nil
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil
	}
	var names []string
	for _, name := range strings.Split(fields[0], ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		names = append(names, name)
	}
	return names
}

// collectAllows parses every //lint:allow directive in the package.
func collectAllows(pkg *Package) []*allow {
	var out []*allow
	for _, f := range pkg.Files {
		extents := simpleStmtExtents(pkg, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := parseAllowDirective(c.Text)
				if len(names) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				endLine := pos.Line + 1
				if end, ok := extents[pos.Line+1]; ok && end > endLine {
					endLine = end
				}
				for _, name := range names {
					out = append(out, &allow{analyzer: name, file: pos.Filename, line: pos.Line, col: pos.Column, endLine: endLine})
				}
			}
		}
	}
	return out
}

// allowList returns the package's parsed //lint:allow directives, parsing
// them once and caching on the Package (the same objects back every Run,
// so exemption marks and suppression marks agree; Run resets the used
// flags before analyzers execute).
func (p *Package) allowList() []*allow {
	if !p.allowsParsed {
		p.allows = collectAllows(p)
		p.allowsParsed = true
	}
	return p.allows
}

// exemptAt reports whether an allow directive for analyzer covers pos —
// same line, line directly above, or a directive above a multi-line
// simple statement containing pos. A match marks the directive used, so
// summary-level consumption keeps the stale-directive check honest.
func (p *Package) exemptAt(analyzer string, pos token.Pos) bool {
	position := p.Fset.Position(pos)
	covered := false
	for _, a := range p.allowList() {
		if a.covers(analyzer, position.Filename, position.Line) {
			a.used = true
			covered = true
		}
	}
	return covered
}

// exemptFunc reports whether a summary-level allow directive for analyzer
// covers the whole function: a //lint:allow comment on the declaration
// line or directly above it (conventionally the last doc-comment line).
// Matching directives are marked used.
func (p *Package) exemptFunc(analyzer string, decl *ast.FuncDecl) bool {
	line := p.Fset.Position(decl.Pos()).Line
	file := p.Fset.Position(decl.Pos()).Filename
	covered := false
	for _, a := range p.allowList() {
		if a.analyzer != analyzer || a.file != file {
			continue
		}
		if a.line == line || a.line == line-1 {
			a.used = true
			covered = true
		}
	}
	return covered
}

// simpleStmtExtents maps the start line of every simple (non-nesting)
// statement in the file to its last line. Simple statements cannot hide
// other statements, so extending a directive's coverage over one never
// silently blankets a block body.
func simpleStmtExtents(pkg *Package, f *ast.File) map[int]int {
	extents := make(map[int]int)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.GoStmt,
			*ast.DeferStmt, *ast.DeclStmt, *ast.SendStmt, *ast.IncDecStmt:
			start := pkg.Fset.Position(n.Pos()).Line
			end := pkg.Fset.Position(n.End()).Line
			if end > extents[start] {
				extents[start] = end
			}
		}
		return true
	})
	return extents
}

// suppress drops diagnostics covered by an allow directive on the same
// line, the line directly above, or — for a directive sitting above a
// multi-line simple statement — anywhere inside that statement. Used
// directives are marked; every directive (naming an analyzer that
// actually ran) which suppressed nothing becomes an "unused directive"
// diagnostic at the directive's own position — deleting a finding
// without deleting its escape hatch is itself a finding.
func suppress(diags []Diagnostic, allows []*allow, ran map[string]bool, reportUnused bool) []Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		covered := false
		for _, a := range allows {
			if a.covers(d.Analyzer, d.Pos.Filename, d.Pos.Line) {
				a.used = true
				covered = true
			}
		}
		if !covered {
			kept = append(kept, d)
		}
	}
	if reportUnused {
		for _, a := range allows {
			if !a.used && ran[a.analyzer] {
				kept = append(kept, Diagnostic{
					Analyzer: "lint",
					Pos:      token.Position{Filename: a.file, Line: a.line, Column: a.col},
					Message:  fmt.Sprintf("unused //lint:allow %s directive (nothing on this or the next line triggers it)", a.analyzer),
				})
			}
		}
	}
	return kept
}

// sortDiagnostics orders findings by file, line, column, analyzer —
// deterministic output for golden tests and stable CI logs.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// pathMatches reports whether importPath ends in one of the given
// slash-separated suffixes ("internal/core" matches "because/internal/core"
// but not "because/internal/corelike").
func pathMatches(importPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if importPath == s || strings.HasSuffix(importPath, "/"+s) {
			return true
		}
	}
	return false
}

// enclosingFunc returns the innermost function (*ast.FuncDecl or
// *ast.FuncLit) in stack, or nil. stack is an ancestor chain, outermost
// first; funcParts yields the function's body.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// inspectWithStack walks the file like ast.Inspect but hands the visitor
// its ancestor chain (outermost first, not including n itself).
func inspectWithStack(f *ast.File, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}
