package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
)

// WireDrift returns the module-level analyzer that locks BeCAUSe's JSON
// wire surface. The surface is every json-tagged struct in the wire
// packages — the root package (because.Result / because.ASReport and
// their MarshalJSON wire structs) and internal/serve (request and
// response envelopes) — rendered to a deterministic text form and
// checked in as wire.lock at the repository root.
//
// The analyzer fails the lint run whenever the computed surface departs
// from the locked one, with the fix depending on the kind of drift:
//
//   - additive drift (new structs, new fields; nothing removed, renamed,
//     retyped or retagged) only needs `make wire-lock` to re-record the
//     surface;
//   - non-additive drift breaks existing consumers, so it additionally
//     requires a SchemaVersion bump before `make wire-lock` will accept
//     the regeneration (see WriteWireLock).
//
// This turns "someone edited a json tag and nobody noticed" from a
// production incident into a red lint run.
func WireDrift() *Analyzer {
	return wireDrift(productionWireConfig())
}

// productionWireConfig is the single registration point for BeCAUSe's
// wire packages, shared by the analyzer (WireDrift) and the lock
// regenerator (WriteWireLock) so the two can never disagree about what
// the surface is: the module root (because.Result / because.ASReport),
// internal/serve (request, response and job/event envelopes),
// internal/obs (the trace export embedded in job status documents),
// internal/scenario (the scenario document format and the outcome
// served by POST /v1/scenarios/{name}/infer) and internal/churn (the
// churn observation model — currently tag-free, registered so any future
// wire struct there is locked from its first commit).
func productionWireConfig() wireDriftConfig {
	return wireDriftConfig{
		pkgSuffixes: []string{"internal/serve", "internal/obs", "internal/scenario", "internal/churn"},
		includeRoot: true,
	}
}

// wireDriftConfig parameterises the analyzer for fixtures: which loaded
// packages form the wire surface and where the lock file lives.
type wireDriftConfig struct {
	// pkgSuffixes selects wire packages by import-path suffix
	// (pathMatches semantics).
	pkgSuffixes []string
	// includeRoot additionally selects the module root package (the one
	// whose import path has no slash).
	includeRoot bool
	// lockPath overrides the lock file location. Empty means
	// <module root dir>/wire.lock, with the module root dir taken from
	// the root package (or the lexically shortest wire package dir when
	// the root is not part of the load).
	lockPath string
}

func wireDrift(cfg wireDriftConfig) *Analyzer {
	a := &Analyzer{
		Name: "wiredrift",
		Doc:  "lock the JSON wire surface: schema edits must regenerate wire.lock, incompatible ones must bump SchemaVersion",
	}
	a.RunModule = func(pass *ModulePass) {
		wirePkgs := selectWirePackages(pass.Pkgs, cfg)
		if len(wirePkgs) == 0 {
			return // load did not include the wire surface (fixture runs)
		}
		surface := computeWireSurface(wirePkgs)
		version, versionPos, haveVersion := schemaVersionOf(wirePkgs)
		if !haveVersion {
			pass.Reportf(wirePkgs[0].Files[0].Pos(), "wire packages declare no SchemaVersion constant: the wire surface cannot be versioned")
			return
		}
		lockPath := cfg.lockPath
		if lockPath == "" {
			lockPath = filepath.Join(moduleRootDir(pass.Pkgs, wirePkgs), "wire.lock")
		}
		lock, err := readWireLock(lockPath)
		if os.IsNotExist(err) {
			pass.Reportf(wirePkgs[0].Files[0].Pos(), "wire.lock missing at %s: run `make wire-lock` to record the JSON wire surface", lockPath)
			return
		}
		if err != nil {
			pass.Reportf(wirePkgs[0].Files[0].Pos(), "unreadable wire.lock: %v", err)
			return
		}
		reportWireDrift(pass, surface, lock, version, versionPos, wirePkgs[0].Files[0].Pos())
	}
	return a
}

// wireChangeKind sorts one struct's difference from the lock.
type wireChangeKind int

const (
	wireJoined       wireChangeKind = iota // not in the lock
	wireAdditive                           // fields added, none disturbed
	wireIncompatible                       // a field removed, renamed, retyped or retagged
	wireDeparted                           // in the lock, gone from the surface
)

// wireChange is one struct whose surface differs from the lock.
type wireChange struct {
	kind wireChangeKind
	name string
	pos  token.Pos // NoPos for a departed struct
}

// diffWire lists every difference between the computed surface and the
// locked one: surface structs in surface order, then departed structs by
// name.
func diffWire(surface []*wireStruct, lock *wireLock) []wireChange {
	var out []wireChange
	current := make(map[string]bool, len(surface))
	for _, s := range surface {
		current[s.name] = true
		locked, ok := lock.structs[s.name]
		kind := wireIncompatible
		switch {
		case !ok:
			kind = wireJoined
		case slices.Equal(s.fields, locked):
			continue
		case additiveChange(locked, s.fields):
			kind = wireAdditive
		}
		out = append(out, wireChange{kind, s.name, s.pos})
	}
	for _, name := range lock.structNames() {
		if !current[name] {
			out = append(out, wireChange{wireDeparted, name, token.NoPos})
		}
	}
	return out
}

// reportWireDrift diagnoses every difference between the computed
// surface and the locked one.
func reportWireDrift(pass *ModulePass, surface []*wireStruct, lock *wireLock, version int64, versionPos, fallback token.Pos) {
	changes := diffWire(surface, lock)
	bumped := version > lock.version
	for _, c := range changes {
		switch {
		case c.kind == wireJoined:
			pass.Reportf(c.pos, "struct %s joined the JSON wire surface: regenerate wire.lock (`make wire-lock`)", c.name)
		case c.kind == wireAdditive:
			pass.Reportf(c.pos, "JSON wire surface of %s grew additively: regenerate wire.lock (`make wire-lock`)", c.name)
		case c.kind == wireIncompatible && bumped:
			pass.Reportf(c.pos, "JSON wire surface of %s changed incompatibly under the new SchemaVersion %d: regenerate wire.lock (`make wire-lock`)", c.name, version)
		case c.kind == wireIncompatible:
			pass.Reportf(c.pos, "JSON wire surface of %s changed incompatibly (field removed, renamed, retyped or retagged) without a SchemaVersion bump: bump SchemaVersion and regenerate wire.lock (`make wire-lock`)", c.name)
		case bumped:
			pass.Reportf(fallback, "struct %s left the JSON wire surface under the new SchemaVersion %d: regenerate wire.lock (`make wire-lock`)", c.name, version)
		default:
			pass.Reportf(fallback, "struct %s left the JSON wire surface without a SchemaVersion bump: bump SchemaVersion and regenerate wire.lock (`make wire-lock`)", c.name)
		}
	}
	if len(changes) == 0 && version != lock.version {
		pass.Reportf(versionPos, "SchemaVersion is %d but wire.lock records %d: regenerate wire.lock (`make wire-lock`)", version, lock.version)
	}
}

// WriteWireLock recomputes the production wire surface under root and
// rewrites root/wire.lock. It refuses a non-additive regeneration unless
// SchemaVersion has been bumped above the locked version — the lock file
// cannot be used to launder an incompatible schema change past review.
func WriteWireLock(root string) (string, error) {
	pkgs, err := Load(root, "./...")
	if err != nil {
		return "", err
	}
	cfg := productionWireConfig()
	wirePkgs := selectWirePackages(pkgs, cfg)
	if len(wirePkgs) == 0 {
		return "", fmt.Errorf("lint: no wire packages under %s", root)
	}
	surface := computeWireSurface(wirePkgs)
	version, _, ok := schemaVersionOf(wirePkgs)
	if !ok {
		return "", fmt.Errorf("lint: wire packages declare no SchemaVersion constant")
	}
	lockPath := filepath.Join(moduleRootDir(pkgs, wirePkgs), "wire.lock")
	if old, err := readWireLock(lockPath); err == nil && version <= old.version {
		for _, c := range diffWire(surface, old) {
			switch c.kind {
			case wireIncompatible:
				return "", fmt.Errorf("lint: refusing to regenerate %s: %s changed incompatibly while SchemaVersion is still %d — bump SchemaVersion first", lockPath, c.name, version)
			case wireDeparted:
				return "", fmt.Errorf("lint: refusing to regenerate %s: %s left the wire surface while SchemaVersion is still %d — bump SchemaVersion first", lockPath, c.name, version)
			}
		}
	}
	return lockPath, os.WriteFile(lockPath, []byte(renderWireLock(surface, version)), 0o644)
}

// wireStruct is one struct on the wire surface: a stable name, the
// source position (for diagnostics) and one rendered line per field
// that participates in JSON encoding.
type wireStruct struct {
	name   string
	pos    token.Pos
	fields []string
}

// selectWirePackages picks the packages whose structs form the wire
// surface, ordered by import path.
func selectWirePackages(pkgs []*Package, cfg wireDriftConfig) []*Package {
	var out []*Package
	for _, p := range pkgs {
		if cfg.includeRoot && !strings.Contains(p.ImportPath, "/") {
			out = append(out, p)
			continue
		}
		if pathMatches(p.ImportPath, cfg.pkgSuffixes) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out
}

// moduleRootDir locates the directory of the module root package, or —
// when the root is not part of the load — the lexically shortest wire
// package directory.
func moduleRootDir(pkgs, wirePkgs []*Package) string {
	for _, p := range pkgs {
		if !strings.Contains(p.ImportPath, "/") {
			return p.Dir
		}
	}
	best := wirePkgs[0].Dir
	for _, p := range wirePkgs[1:] {
		if len(p.Dir) < len(best) {
			best = p.Dir
		}
	}
	return best
}

// computeWireSurface walks every wire package for struct types with at
// least one json-tagged field. Named types take their declared name;
// function-local and anonymous structs are named by their enclosing
// declaration plus a per-function ordinal, so unrelated line shifts do
// not churn the lock. Structs nested inside another surface struct are
// rendered inline as part of the parent's field type and not re-listed.
func computeWireSurface(wirePkgs []*Package) []*wireStruct {
	var out []*wireStruct
	for _, pkg := range wirePkgs {
		for _, f := range pkg.Files {
			out = append(out, collectWireStructs(pkg, f)...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func collectWireStructs(pkg *Package, f *ast.File) []*wireStruct {
	var out []*wireStruct
	var prefix []string      // enclosing decl names: func / method / type spec
	anon := map[string]int{} // per-prefix ordinal for anonymous structs
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			name := n.Name.Name
			if n.Recv != nil && len(n.Recv.List) > 0 {
				name = recvTypeName(n.Recv.List[0].Type) + "." + name
			}
			prefix = append(prefix, name)
			ast.Inspect(n.Body, walk)
			prefix = prefix[:len(prefix)-1]
			return false
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok {
				if ws := renderWireStruct(pkg, st, strings.Join(append(prefix, n.Name.Name), ".")); ws != nil {
					out = append(out, ws)
				}
				return false
			}
		case *ast.StructType:
			// An anonymous struct literal type (var decl, composite
			// literal, conversion). Named by source order within the
			// enclosing declaration.
			key := strings.Join(prefix, ".")
			anon[key]++
			name := fmt.Sprintf("%s.struct#%d", key, anon[key])
			if len(prefix) == 0 {
				name = fmt.Sprintf("struct#%d", anon[key])
			}
			if ws := renderWireStruct(pkg, n, name); ws != nil {
				out = append(out, ws)
			}
			return false
		}
		return true
	}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body == nil {
			continue
		}
		ast.Inspect(decl, walk)
	}
	// Qualify with the package name.
	for _, ws := range out {
		ws.name = pkg.Name + "." + ws.name
	}
	return out
}

// renderWireStruct renders one struct if any field carries a json tag;
// nil otherwise. Field lines keep declaration order — encoding/json
// emits fields in that order, so order is part of the wire surface.
func renderWireStruct(pkg *Package, st *ast.StructType, name string) *wireStruct {
	tagged := false
	var lines []string
	for _, field := range st.Fields.List {
		var tag reflect.StructTag
		if field.Tag != nil {
			tag = reflect.StructTag(strings.Trim(field.Tag.Value, "`"))
		}
		jsonTag := tag.Get("json")
		if field.Tag != nil && strings.Contains(field.Tag.Value, "json:") {
			tagged = true
		}
		if jsonTag == "-" {
			continue
		}
		jsonName, opts, _ := strings.Cut(jsonTag, ",")
		typeStr := fieldTypeString(pkg, field.Type)
		names := field.Names
		if len(names) == 0 {
			// Embedded field: encoding/json promotes it; record under the
			// type name.
			base := recvTypeName(field.Type)
			if jsonName == "" {
				jsonName = base
			}
			lines = append(lines, fieldLine(jsonName, base, typeStr, opts))
			continue
		}
		for _, id := range names {
			if !id.IsExported() {
				continue // unexported fields never marshal
			}
			n := jsonName
			if n == "" {
				n = id.Name
			}
			lines = append(lines, fieldLine(n, id.Name, typeStr, opts))
		}
	}
	if !tagged || len(lines) == 0 {
		return nil
	}
	return &wireStruct{name: name, pos: st.Pos(), fields: lines}
}

func fieldLine(jsonName, goName, typeStr, opts string) string {
	line := jsonName + "\t" + goName + "\t" + typeStr
	if opts != "" {
		line += "\t" + opts
	}
	return line
}

// fieldTypeString renders a field type with package-name qualifiers —
// stable across machines, unlike full import paths under testdata.
func fieldTypeString(pkg *Package, e ast.Expr) string {
	if tv, ok := pkg.Info.Types[e]; ok && tv.Type != nil {
		return types.TypeString(tv.Type, func(p *types.Package) string { return p.Name() })
	}
	return "?"
}

// recvTypeName extracts the base type name from a receiver or embedded
// field type expression.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// schemaVersionOf finds the SchemaVersion constant declared by a wire
// package (the root package in production) and returns its value and
// declaration position.
func schemaVersionOf(wirePkgs []*Package) (int64, token.Pos, bool) {
	for _, pkg := range wirePkgs {
		obj := pkg.Types.Scope().Lookup("SchemaVersion")
		c, ok := obj.(*types.Const)
		if !ok {
			continue
		}
		v, ok := constant.Int64Val(constant.ToInt(c.Val()))
		if !ok {
			continue
		}
		return v, c.Pos(), true
	}
	return 0, token.NoPos, false
}

// wireLock is a parsed wire.lock file.
type wireLock struct {
	version int64
	structs map[string][]string
}

func (l *wireLock) structNames() []string {
	names := make([]string, 0, len(l.structs))
	for n := range l.structs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// renderWireLock produces the canonical lock text: a header, the schema
// version, then one block per struct with tab-indented field lines.
func renderWireLock(surface []*wireStruct, version int64) string {
	var b strings.Builder
	b.WriteString("# wire.lock — JSON wire surface of BeCAUSe, generated by `make wire-lock`.\n")
	b.WriteString("# Do not edit: becauselint's wiredrift analyzer checks this file against\n")
	b.WriteString("# the source. Field lines are: json name, Go field, type, tag options.\n")
	fmt.Fprintf(&b, "schema_version %d\n", version)
	for _, s := range surface {
		b.WriteString("\nstruct " + s.name + "\n")
		for _, line := range s.fields {
			b.WriteString("\t" + line + "\n")
		}
	}
	return b.String()
}

// readWireLock parses a lock file written by renderWireLock.
func readWireLock(path string) (*wireLock, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lock := &wireLock{structs: map[string][]string{}}
	var cur string
	for i, line := range strings.Split(string(data), "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "schema_version "):
			if _, err := fmt.Sscanf(line, "schema_version %d", &lock.version); err != nil {
				return nil, fmt.Errorf("lint: %s:%d: bad schema_version line", path, i+1)
			}
		case strings.HasPrefix(line, "struct "):
			cur = strings.TrimPrefix(line, "struct ")
			lock.structs[cur] = nil
		case strings.HasPrefix(line, "\t"):
			if cur == "" {
				return nil, fmt.Errorf("lint: %s:%d: field line outside a struct block", path, i+1)
			}
			lock.structs[cur] = append(lock.structs[cur], strings.TrimPrefix(line, "\t"))
		default:
			return nil, fmt.Errorf("lint: %s:%d: unrecognised line %q", path, i+1, line)
		}
	}
	return lock, nil
}

// additiveChange reports whether new extends old without disturbing it:
// every old field line appears in new, in the same relative order. New
// fields may be appended or interleaved; anything removed, renamed,
// retyped or retagged is non-additive.
func additiveChange(old, new []string) bool {
	i := 0
	for _, line := range new {
		if i < len(old) && line == old[i] {
			i++
		}
	}
	return i == len(old)
}
