package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package under analysis.
type Package struct {
	Dir        string
	ImportPath string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader parses and type-checks packages with nothing but the
// standard library: module-local imports resolve to other loaded
// packages, everything else is type-checked from GOROOT source via
// go/importer's source importer. Loading the whole dpr module this
// way takes a few seconds — acceptable for a lint gate, and it keeps
// the tool free of external dependencies.
//
// Malformed input is survivable by design: a file that does not
// parse, a package that does not type-check, or a package whose files
// are all excluded by build constraints each produce a Rule "load"
// diagnostic (collected via LoadDiagnostics) instead of aborting the
// run, and the analyzers proceed over every package that did load.
type Loader struct {
	Fset *token.FileSet

	module string // module path from go.mod ("" until LoadModule)
	root   string // module root directory

	pkgs     map[string]*loadEntry // import path -> entry
	checking map[string]bool       // cycle detection
	std      types.Importer
	diags    []Diagnostic // load-stage findings (parse/type/build-tag)
}

type loadEntry struct {
	pkg *Package
	err error
}

// NewLoader returns an empty loader with a fresh file set.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:     fset,
		pkgs:     make(map[string]*loadEntry),
		checking: make(map[string]bool),
		std:      importer.ForCompiler(fset, "source", nil),
	}
}

// ModulePath reads the module path out of root/go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// LoadModule parses every package under root (skipping testdata,
// hidden directories and test files) and type-checks them in
// dependency order. It returns the packages sorted by import path.
func (l *Loader) LoadModule(root string) ([]*Package, error) {
	module, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l.module, l.root = module, abs

	var paths []string
	err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(abs, dir)
		if err != nil {
			return err
		}
		ip := module
		if rel != "." {
			ip = module + "/" + filepath.ToSlash(rel)
		}
		if _, seen := l.pkgs[ip]; !seen {
			l.pkgs[ip] = nil // reserve; parsed below in path order
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)

	for _, ip := range paths {
		dir := abs
		if ip != module {
			dir = filepath.Join(abs, filepath.FromSlash(strings.TrimPrefix(ip, module+"/")))
		}
		entry, err := l.parseDir(dir, ip)
		if err != nil {
			return nil, err
		}
		l.pkgs[ip] = entry
	}

	// Type-check whatever parsed. A package that fails here (or whose
	// imports failed) is reported through LoadDiagnostics and dropped;
	// the rest of the module is still analyzed.
	var out []*Package
	for _, ip := range paths {
		p, err := l.check(ip)
		if err != nil {
			continue // diagnosed inside check
		}
		out = append(out, p)
	}
	return out, nil
}

// Select keeps the packages whose import path is one of suffixes or
// ends in "/" and one of them (a trailing slash ignored), in load
// order. A suffix that names no package the loader found is an error:
// it would leave nothing to lint.
func (l *Loader) Select(pkgs []*Package, suffixes []string) ([]*Package, error) {
	match := func(importPath, s string) bool {
		return importPath == s || strings.HasSuffix(importPath, "/"+strings.TrimSuffix(s, "/"))
	}
	for _, s := range suffixes {
		found := false
		for ip := range l.pkgs {
			found = found || match(ip, s)
		}
		if !found {
			return nil, fmt.Errorf("package suffix %q matches no package in module %s", s, l.module)
		}
	}
	var kept []*Package
	for _, p := range pkgs {
		if slices.ContainsFunc(suffixes, func(s string) bool { return match(p.ImportPath, s) }) {
			kept = append(kept, p)
		}
	}
	return kept, nil
}

// LoadDiagnostics returns the findings produced while loading:
// unparseable files, packages that fail type-checking, and packages
// whose files are all excluded by build constraints. They carry Rule
// "load" and are not suppressible.
func (l *Loader) LoadDiagnostics() []Diagnostic {
	ds := append([]Diagnostic(nil), l.diags...)
	sortDiagnostics(ds)
	return ds
}

// loadDiag records one load-stage finding.
func (l *Loader) loadDiag(file string, line, col int, format string, args ...interface{}) {
	l.diags = append(l.diags, Diagnostic{
		File: file, Line: line, Column: col,
		Rule: RuleLoad, Message: sprintf(format, args...),
	})
}

// LoadDir parses and type-checks the single package in dir under the
// given import path, without walking a module. Used for fixture
// packages, whose import paths the tests choose to match the scoping
// config. Fixtures may only import the standard library.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entry, err := l.parseDir(dir, importPath)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = entry
	return l.check(importPath)
}

// parseDir parses the non-test .go files of one directory. Files that
// do not parse are diagnosed and skipped; only I/O failures are
// returned as errors.
func (l *Loader) parseDir(dir, importPath string) (*loadEntry, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &Package{Dir: dir, ImportPath: importPath}
	sawGo, sawBroken := false, false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		sawGo = true
		// Platform-variant files (mmap_linux.go / mmap_other.go) must not
		// both load into one package. A constraint go/build cannot
		// evaluate keeps the file, and the parser reports it.
		if ok, err := build.Default.MatchFile(dir, name); err == nil && !ok {
			continue
		}
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.Fset, path, src,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			sawBroken = true
			line, col := 1, 1
			if list, ok := err.(scanner.ErrorList); ok && len(list) > 0 {
				line, col = list[0].Pos.Line, list[0].Pos.Column
				err = fmt.Errorf("%s", list[0].Msg)
			}
			l.loadDiag(path, line, col, "file does not parse: %v", err)
			continue
		}
		p.Files = append(p.Files, f)
	}
	if len(p.Files) == 0 {
		switch {
		case sawBroken:
			// Already diagnosed file by file.
		case sawGo:
			l.loadDiag(filepath.Join(dir, "."), 1, 1,
				"package %s has no files matching the host build configuration", importPath)
		default:
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		return &loadEntry{err: fmt.Errorf("lint: no loadable Go files in %s", dir)}, nil
	}
	return &loadEntry{pkg: p}, nil
}

// Import implements types.Importer over the loader's package set,
// falling back to the GOROOT source importer for everything else.
func (l *Loader) Import(path string) (*types.Package, error) {
	if _, ok := l.pkgs[path]; ok {
		p, err := l.check(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// StdImport exposes standard-library type information to analyzers
// (e.g. the net.Conn interface object).
func (l *Loader) StdImport(path string) (*types.Package, error) {
	return l.std.Import(path)
}

// check type-checks one previously parsed package, memoized.
func (l *Loader) check(importPath string) (*Package, error) {
	entry := l.pkgs[importPath]
	if entry == nil {
		return nil, fmt.Errorf("lint: package %s not loaded", importPath)
	}
	if entry.err != nil {
		return nil, entry.err
	}
	p := entry.pkg
	if p.Types != nil {
		return p, nil
	}
	if l.checking[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.checking[importPath] = true
	defer delete(l.checking, importPath)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	// Collect every type error as a load diagnostic rather than
	// stopping at the first: a broken package is dropped from analysis
	// but reported in full, and the rest of the module still lints.
	var typeErrs int
	conf := types.Config{Importer: l, Error: func(err error) {
		te, ok := err.(types.Error)
		if !ok || typeErrs >= 20 {
			return
		}
		typeErrs++
		pos := te.Fset.Position(te.Pos)
		l.loadDiag(pos.Filename, pos.Line, pos.Column, "type error: %s", te.Msg)
	}}
	tpkg, err := conf.Check(importPath, l.Fset, p.Files, info)
	if err != nil {
		if typeErrs == 0 {
			l.loadDiag(filepath.Join(p.Dir, "."), 1, 1, "package %s does not type-check: %v", importPath, err)
		}
		entry.err = err
		return nil, err
	}
	p.Types, p.Info = tpkg, info
	return p, nil
}
