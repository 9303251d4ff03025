package lint

import (
	"path/filepath"
)

// Options configures a lint run.
type Options struct {
	// Analyzers to run; nil selects All().
	Analyzers []*Analyzer
	// KeepUnusedAllows disables the stale-directive check (used by tests
	// that exercise fixtures one analyzer at a time).
	KeepUnusedAllows bool
	// RelTo, when non-empty, renders diagnostic file paths relative to
	// this directory (falling back to the absolute path outside it).
	RelTo string
}

// All returns the production analyzer set with its default configuration.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism(),
		MapOrder(),
		RNGShare(),
		ObsNil(),
		CtxFlow(),
		ErrFlow(),
		WireDrift(),
		Hotpath(),
		GoLeak(),
		Lockcheck(),
	}
}

// Run loads the packages matched by patterns (resolved relative to dir)
// and applies every analyzer, returning findings sorted by position.
// A finding is suppressed by a `//lint:allow <analyzer>` comment on its
// line or the line above; directives that suppress nothing are themselves
// reported unless opts.KeepUnusedAllows is set.
func Run(dir string, patterns []string, opts Options) ([]Diagnostic, error) {
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	// Directive used-marks are shared between analyzers (summary-level
	// exemptions) and the suppression pass below, and dataflow solutions
	// between analyzers; reset both up front so repeated Runs over cached
	// packages start from a clean slate.
	var allows []*allow
	for _, pkg := range pkgs {
		allows = append(allows, pkg.allowList()...)
		pkg.flows = nil
	}
	for _, a := range allows {
		a.used = false
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &all}
			a.Run(pass)
		}
	}
	var graph *callGraph
	var sums *summaries
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if graph == nil {
			graph = buildCallGraph(pkgs)
			sums = solveSummaries(graph)
		}
		a.RunModule(&ModulePass{Analyzer: a, Pkgs: pkgs, graph: graph, sums: sums, diags: &all})
	}
	all = suppress(all, allows, ran, !opts.KeepUnusedAllows)
	sortDiagnostics(all)
	all = dedupDiagnostics(all)
	for i := range all {
		all[i].File = renderPath(all[i].Pos.Filename, opts.RelTo)
		all[i].Line = all[i].Pos.Line
		all[i].Col = all[i].Pos.Column
	}
	return all, nil
}

// dedupDiagnostics collapses identical sorted findings: nested map ranges
// can flag the same statement once per enclosing loop.
func dedupDiagnostics(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// renderPath shortens an absolute position path relative to base when
// possible; cross-volume or outside-base paths stay absolute.
func renderPath(path, base string) string {
	if base == "" {
		return path
	}
	rel, err := filepath.Rel(base, path)
	if err != nil || rel == ".." || len(rel) > 2 && rel[:3] == ".."+string(filepath.Separator) {
		return path
	}
	return rel
}
