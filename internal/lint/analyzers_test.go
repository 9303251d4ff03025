package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// runFixture lints one testdata fixture package with a single analyzer
// and renders the findings one per line, paths relative to this package
// directory — the golden format under testdata/golden.
func runFixture(t *testing.T, a *Analyzer, fixture string) string {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(cwd, []string{"./testdata/src/" + fixture}, Options{
		Analyzers: []*Analyzer{a},
		RelTo:     cwd,
	})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(filepath.ToSlash(d.File))
		b.WriteString(d.String()[len(d.File):])
		b.WriteByte('\n')
	}
	return b.String()
}

// checkGolden compares got against testdata/golden/<name>.txt. Set
// LINT_UPDATE_GOLDEN=1 to rewrite the golden files from current output.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if os.Getenv("LINT_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with LINT_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// The four golden tests pin, per analyzer: every seeded violation fires,
// the //lint:allow suppression case stays silent, and the false-positive
// guards (fixed forms of each pattern) stay silent.

func TestDeterminismGolden(t *testing.T) {
	got := runFixture(t, Determinism("testdata/src/determinism"), "determinism")
	checkGolden(t, "determinism", got)
}

func TestMapOrderGolden(t *testing.T) {
	got := runFixture(t, MapOrder(), "maporder")
	checkGolden(t, "maporder", got)
}

func TestRNGShareGolden(t *testing.T) {
	got := runFixture(t, RNGShare(), "rngshare")
	checkGolden(t, "rngshare", got)
}

func TestObsNilGolden(t *testing.T) {
	got := runFixture(t, ObsNil("testdata/src/obsnil"), "obsnil")
	checkGolden(t, "obsnil", got)
}

func TestCtxFlowGolden(t *testing.T) {
	got := runFixture(t, CtxFlow(), "ctxflow")
	checkGolden(t, "ctxflow", got)
}

func TestErrFlowGolden(t *testing.T) {
	got := runFixture(t, ErrFlow(), "errflow")
	checkGolden(t, "errflow", got)
}

// TestWireDriftGolden points the analyzer at a fixture package whose
// committed wire.lock predates its current source: every drift class
// (tag rename, field growth, new struct, deleted struct) fires at once.
func TestWireDriftGolden(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	a := wireDrift(wireDriftConfig{
		pkgSuffixes: []string{"testdata/src/wiredrift"},
		lockPath:    filepath.Join(cwd, "testdata", "src", "wiredrift", "wire.lock"),
	})
	got := runFixture(t, a, "wiredrift")
	checkGolden(t, "wiredrift", got)
}

func TestHotpathGolden(t *testing.T) {
	got := runFixture(t, Hotpath(), "hotpath")
	checkGolden(t, "hotpath", got)
}

func TestGoLeakGolden(t *testing.T) {
	got := runFixture(t, GoLeak(), "goleak")
	checkGolden(t, "goleak", got)
}

// TestLockcheckGolden pins the guarded-field and blocking-under-lock
// classes: declared contracts firing, including one held through the
// wrong sibling mutex, the fresh-alloc and Locked-suffix exemptions
// staying silent, both allow grammars (//lint:guard on fields,
// //lint:allow lockcheck on sites) consumed, and a malformed guard
// directive reported.
func TestLockcheckGolden(t *testing.T) {
	got := runFixture(t, Lockcheck(), "lockcheck")
	checkGolden(t, "lockcheck", got)
}

// TestLockOrderGolden is the acceptance case for the acquisition-order
// graph: a seeded two-lock inversion is reported at both sites, each
// message citing the other chain's coordinates; the interprocedural
// variant carries call-chain evidence; a same-path re-lock reports a
// self-deadlock; the consistently ordered pair stays silent.
func TestLockOrderGolden(t *testing.T) {
	got := runFixture(t, Lockcheck(), "lockorder")
	checkGolden(t, "lockorder", got)
}

// TestTransitiveDeterminismGolden is the acceptance case for the
// interprocedural determinism upgrade: a clock read reachable only
// through a two-hop helper chain from the scoped package is flagged at
// the boundary call site (with the chain in the message), while the
// same chain behind a declaration-level observability allow — and
// behind a justified call-site allow — stays silent.
func TestTransitiveDeterminismGolden(t *testing.T) {
	got := runFixture(t, Determinism("testdata/src/transdet/core"), "transdet/...")
	checkGolden(t, "transdet", got)
}

// TestDeadCodeGolden names the fixture as its own root package: the
// unreferenced function and methods are flagged, and so is a method that
// a conversion's interface does not name; function and method values,
// conversions in an argument, an assignment and a return, generic code
// reached through Origin, initialisers and an allowed oracle's helper
// stay silent; a deadcode allow on a reached function is stale.
func TestDeadCodeGolden(t *testing.T) {
	got := runFixture(t, DeadCode([]string{"testdata/src/deadcode"}, nil), "deadcode/...")
	checkGolden(t, "deadcode", got)
}

// TestDeadCodeSilentOnPartialLoad: a load without the root package lacks
// the callers, so the analyzer reports nothing, and its allows in the
// loaded packages are not stale.
func TestDeadCodeSilentOnPartialLoad(t *testing.T) {
	if got := runFixture(t, DeadCode([]string{"because"}, []string{"perfbench"}), "deadcode/..."); got != "" {
		t.Errorf("partial load reported findings:\n%s", got)
	}
}

// TestDeadCodeNestedModuleRoot drops the nested perfbench module from the
// roots: the functions only perfbench calls must then be flagged, which
// shows that its references are loaded and counted.
func TestDeadCodeNestedModuleRoot(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(cwd, "..", "..")
	diags, err := Run(root, []string{"./..."}, Options{Analyzers: []*Analyzer{DeadCode([]string{"because"}, nil)}, RelTo: root})
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, d := range diags {
		name, _, _ := strings.Cut(d.Message, " ")
		flagged[name] = true
	}
	for _, name := range []string{"collector.ReadMRT", "label.Measurement.Key", "obs.Trace.ID", "obs.TraceFromContext"} {
		if !flagged[name] {
			t.Errorf("%s is reached only from perfbench, but was not flagged without it:\n%s", name, renderDiags(diags))
		}
	}
}

// TestAllowMultiGolden exercises comma-separated directives: one
// comment suppressing two analyzers at once, and per-analyzer
// staleness reported at the directive's own column.
func TestAllowMultiGolden(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(cwd, []string{"./testdata/src/allowmulti"}, Options{
		Analyzers: []*Analyzer{MapOrder(), ErrFlow()},
		RelTo:     cwd,
	})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(filepath.ToSlash(d.File))
		b.WriteString(d.String()[len(d.File):])
		b.WriteByte('\n')
	}
	checkGolden(t, "allowmulti", b.String())
}

// TestDeterminismDefaultPathsIgnoreOtherPackages proves the analyzer's
// package scoping: with the production path list, the fixture package
// (which is full of violations) is out of scope, so its only findings
// are unused-directive reports at its own //lint:allow determinism
// comments (the stale one at least; the call-graph walk still consumes
// a site-level allow that covers a clock read).
func TestDeterminismDefaultPathsIgnoreOtherPackages(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(cwd, []string{"./testdata/src/determinism"}, Options{
		Analyzers: []*Analyzer{Determinism()},
		RelTo:     cwd,
	})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	allows := map[string]bool{}
	files, err := filepath.Glob("testdata/src/determinism/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if col := strings.Index(line, "//lint:allow determinism"); col >= 0 {
				allows[fmt.Sprintf("%s:%d:%d", filepath.ToSlash(f), i+1, col+1)] = true
			}
		}
	}
	if len(diags) == 0 {
		t.Error("the fixture's stale //lint:allow determinism directive was not reported")
	}
	for _, d := range diags {
		pos := fmt.Sprintf("%s:%d:%d", filepath.ToSlash(d.File), d.Line, d.Col)
		if d.Analyzer != "lint" || !strings.HasPrefix(d.Message, "unused //lint:allow determinism directive") || !allows[pos] {
			t.Errorf("default-scoped determinism flagged an out-of-scope package: %s", d)
		}
	}
}

// TestRepoIsLintClean is the enforcement test behind `make lint`: the
// production analyzer set over the whole module must be silent. If this
// fails, either fix the finding or annotate it with a justified
// //lint:allow — and if an annotation goes stale, this test fails on the
// unused directive, so escape hatches cannot outlive their reason.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(cwd, "..", "..")
	diags, err := Run(root, []string{"./..."}, Options{RelTo: root})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestRepeatedRunStable lints one cached load twice and requires identical
// findings, stale-directive reports included. The transdet and lockcheck
// fixtures carry //lint:allow directives that are consumed only while a
// summary is solved (a declaration-level determinism exemption, a
// site-level lockcheck one), and the determinism fixture carries a stale
// directive; analysis state surviving from the first Run — and skipping
// the work that marks those directives used — would change the second
// run's report.
func TestRepeatedRunStable(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(cwd, "..", "..")
	cases := []struct {
		name      string
		dir       string
		pattern   string
		analyzers []*Analyzer
	}{
		{"transdet", cwd, "./testdata/src/transdet/...", []*Analyzer{Determinism("testdata/src/transdet/core")}},
		{"lockcheck", cwd, "./testdata/src/lockcheck", []*Analyzer{Lockcheck()}},
		{"determinism", cwd, "./testdata/src/determinism", []*Analyzer{Determinism("testdata/src/determinism")}},
		{"module", root, "./...", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.dir == root && testing.Short() {
				t.Skip("whole-module type-check is slow; run without -short")
			}
			var runs [2][]Diagnostic
			for i := range runs {
				diags, err := Run(tc.dir, []string{tc.pattern}, Options{Analyzers: tc.analyzers, RelTo: tc.dir})
				if err != nil {
					t.Fatalf("lint.Run #%d: %v", i+1, err)
				}
				runs[i] = diags
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Errorf("second Run over the cached load differs\n--- first ---\n%s--- second ---\n%s", renderDiags(runs[0]), renderDiags(runs[1]))
			}
		})
	}
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
