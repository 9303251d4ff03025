package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// DefaultDeterminismPaths are the result-affecting packages: everything
// whose output feeds the paper's tables and figures. A wall-clock read or
// an unseeded RNG anywhere in these packages can silently break the
// bit-identical-at-any-worker-count guarantee pinned by the
// reproducibility harness in internal/core.
var DefaultDeterminismPaths = []string{
	"internal/core",
	"internal/stats",
	"internal/router",
	"internal/topology",
	"internal/rfd",
	"internal/label",
	"internal/experiment",
	// internal/churn is an observation model: its kernels execute inside
	// every sampler sweep, where any clock or unseeded-RNG read would
	// break chain reproducibility exactly as it would in internal/core.
	"internal/churn",
	// internal/serve caches and serves inference results keyed by request
	// content; any clock dependence there would make cache behaviour (and
	// therefore responses) time-sensitive. Its two latency-metric timings
	// carry justified //lint:allow annotations.
	"internal/serve",
	// internal/obs mints the deterministic trace/span IDs the wire
	// surface exposes; IDs and span ordering must never draw from clocks
	// or randomness. Its span/log timestamp reads — observability-only by
	// design — carry justified //lint:allow annotations.
	"internal/obs",
	// internal/scenario renders and runs declarative scenario documents
	// whose goldens are byte-compared in CI; a clock or unseeded RNG there
	// would make renders (and the regression matrix) flaky by definition.
	"internal/scenario",
}

// wallClockFuncs are the time-package functions whose results depend on
// when (or how fast) the code runs rather than on its inputs.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Sleep":     true,
}

// Determinism returns the analyzer that forbids wall-clock reads and
// math/rand in result-affecting packages (those whose import path ends in
// one of paths; defaults to DefaultDeterminismPaths). Sampling must go
// through the seeded stats.RNG, and timing that exists only to feed
// observability must be annotated //lint:allow determinism.
//
// The check is interprocedural: beyond the direct reads above, every
// module function gets a "reaches the clock / reaches math/rand" summary
// solved over the call graph, and a call from a result-affecting package
// to a tainted helper anywhere in the module is flagged at the call site
// — a time.Now laundered through one helper in an unlisted package no
// longer escapes. An allow directive on the read's line exempts that
// site from its function's summary; a directive on (or directly above) a
// function declaration exempts the whole function's summary, the idiom
// for observability-only helpers.
func Determinism(paths ...string) *Analyzer {
	if len(paths) == 0 {
		paths = DefaultDeterminismPaths
	}
	a := &Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock reads (time.Now, timers) and math/rand reachable from result-affecting packages",
	}
	a.RunModule = func(pass *ModulePass) {
		for _, pkg := range pass.Pkgs {
			if pathMatches(pkg.ImportPath, paths) {
				reportDirectDeterminism(pass, pkg)
			}
		}
		reportTransitiveDeterminism(pass, paths)
	}
	return a
}

// reportDirectDeterminism flags math/rand imports and wall-clock reads
// written directly in a result-affecting package.
func reportDirectDeterminism(pass *ModulePass, pkg *Package) {
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s in result-affecting package %s: use the seeded stats.RNG instead", path, pkg.ImportPath)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || !isWallClockUse(pkg, id) {
				return true
			}
			pass.Reportf(id.Pos(), "call to time.%s in result-affecting package %s: results must not depend on the wall clock (inject a clock, or annotate observability-only timing with //lint:allow determinism)", id.Name, pkg.ImportPath)
			return true
		})
	}
}

// isWallClockUse reports whether id resolves to a wall-clock-reading
// time-package function (methods like Time.After are pure and excluded).
func isWallClockUse(pkg *Package, id *ast.Ident) bool {
	if !wallClockFuncs[id.Name] {
		return false
	}
	obj := pkg.Info.Uses[id]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return false
	}
	fn, isFunc := obj.(*types.Func)
	return isFunc && fn.Type().(*types.Signature).Recv() == nil
}

// reportTransitiveDeterminism reads the run's clock/rand summaries and
// flags calls from result-affecting packages to tainted helpers living
// outside them. Calls whose callee is itself in a result-affecting
// package are skipped — the direct check owns those — so each
// laundering boundary is reported exactly once.
func reportTransitiveDeterminism(pass *ModulePass, paths []string) {
	sums := pass.sums
	for _, n := range pass.graph.nodes {
		if !pathMatches(n.pkg.ImportPath, paths) {
			continue
		}
		for _, site := range n.calls {
			for _, callee := range site.callees {
				if pathMatches(callee.pkg.ImportPath, paths) {
					continue
				}
				var f fact
				var what string
				switch {
				case sums.has(callee, factClock):
					f, what = factClock, "the wall clock"
				case sums.has(callee, factRand):
					f, what = factRand, "math/rand"
				default:
					continue
				}
				pass.Reportf(site.call.Pos(), "call to %s in result-affecting package %s reaches %s (%s): results must not depend on it (fix the helper, or mark it //lint:allow determinism on its declaration if observability-only)", callee.shortName(), n.pkg.ImportPath, what, sums.explain(callee, f))
				break
			}
		}
	}
}
