package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Name       string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	// flows caches per-function dataflow solutions (see dataflow.go), so
	// every analyzer in a run shares one CFG and one reaching-definitions
	// pass per function. Run clears it up front.
	flows map[ast.Node]*flow

	// allows caches the parsed //lint:allow directives (see allowList);
	// analyzers consume them as summary exemptions and the driver as
	// call-site suppressions, against the same used-tracking.
	allows       []*allow
	allowsParsed bool
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Standard   bool
	Export     string
	DepOnly    bool
	ImportMap  map[string]string
}

// loadCache memoises Load results per (dir, patterns) for the lifetime
// of the process. One lint run already shares a single load across every
// analyzer; the cache extends that sharing to repeated Run calls over the
// same tree — the test suite linting one fixture several times, and
// BenchmarkLint's timed loop — so each package pays `go list -export`
// and the type-check exactly once. Everything an analysis derives from
// the load lives for one Run. Sources are assumed stable while the
// process lives.
var loadCache = struct {
	sync.Mutex
	m map[string][]*Package
}{m: map[string][]*Package{}}

// Load resolves patterns (e.g. "./...") relative to dir, parses every
// matched package's non-test sources, and type-checks them against export
// data produced by the go toolchain — no dependencies beyond the stdlib
// and the `go` command itself. Test files are deliberately excluded: the
// contracts becauselint enforces are about shipped code. Results are
// memoised per (dir, patterns) for the life of the process.
func Load(dir string, patterns ...string) ([]*Package, error) {
	key := dir + "\x00" + strings.Join(patterns, "\x00")
	loadCache.Lock()
	cached, ok := loadCache.m[key]
	loadCache.Unlock()
	if ok {
		return cached, nil
	}
	pkgs, err := load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	loadCache.Lock()
	loadCache.m[key] = pkgs
	loadCache.Unlock()
	return pkgs, nil
}

func load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	// Export data for every dependency, keyed by import path. The
	// per-package ImportMaps (vendor or similar path rewrites) are merged;
	// in a single zero-dependency module they cannot conflict.
	exports := make(map[string]string)
	importMap := make(map[string]string)
	var targets []*listedPackage
	for _, p := range listed {
		p := p
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			importMap[from] = to
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, &p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	// Targets type-check in parallel: every import resolves from export
	// data rather than from other targets, so the packages are mutually
	// independent. The FileSet is documented concurrency-safe; the gc
	// importer's package cache is not, hence the locked wrapper.
	fset := token.NewFileSet()
	imp := &lockedImporter{imp: newExportImporter(fset, exports, importMap)}
	pkgs := make([]*Package, len(targets))
	errs := make([]error, len(targets))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, t *listedPackage) {
			defer func() {
				wg.Done()
				<-sem
			}()
			pkgs[i], errs[i] = typeCheck(fset, imp, t)
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// lockedImporter serialises access to a types.Importer so parallel
// type-checking goroutines share one consistent imported-package universe.
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.Import(path)
}

// goList shells out to `go list -export -deps -json` and decodes the
// package stream. -deps pulls in every transitive dependency so the
// type-checker can resolve all imports from export data; -export makes
// the toolchain materialise that export data in the build cache.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := []string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Name,GoFiles,Standard,Export,DepOnly,ImportMap",
		"--",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("lint: go list %s: %s", strings.Join(patterns, " "), msg)
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// typeCheck parses and checks one target package.
func typeCheck(fset *token.FileSet, imp types.Importer, t *listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(t.GoFiles))
	for _, name := range t.GoFiles {
		// Object resolution is the deprecated ast.Object layer; every
		// analyzer resolves identifiers through go/types Info instead, so
		// skipping it cuts parse time and allocations for free.
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(t.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w", t.ImportPath, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", t.ImportPath, err)
	}
	return &Package{
		ImportPath: t.ImportPath,
		Dir:        t.Dir,
		Name:       t.Name,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// newExportImporter returns a types.Importer that resolves every import
// from the export data files `go list -export` reported, going through
// the stdlib gc importer. importMap rewrites import paths first (vendor
// redirection); "unsafe" is handled by the type-checker's builtin.
func newExportImporter(fset *token.FileSet, exports, importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if to, ok := importMap[path]; ok {
			path = to
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}
