package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package of the module. Test files
// (*_test.go) are excluded: the invariants the suite guards are
// production-path properties, and tests legitimately spin clocks, leak
// short-lived goroutines into t.Cleanup, and discard errors.
type Package struct {
	// Path is the full import path ("crayfish/internal/broker").
	Path string
	// ModRel is the module-relative directory ("" for the root package,
	// "internal/broker", ...). Layering rules are written against it so
	// the same analyzers run unchanged on fixture modules.
	ModRel string
	// Dir is the absolute directory.
	Dir string

	Files     []*ast.File
	Filenames []string

	Types     *types.Package
	TypesInfo *types.Info
	// TypeErrors collects type-checking problems. The loader is lenient
	// (fixtures deliberately contain broken imports); the driver decides
	// whether they are fatal.
	TypeErrors []error

	// allow maps "<file>:<line>" to the directives covering that line;
	// directives holds each parsed directive once (allow double-indexes).
	allow      map[string][]*directive
	directives []*directive
}

// Module is a loaded Go module: every non-test, non-testdata package
// under its root, parsed and type-checked against a source-importer view
// of the standard library.
type Module struct {
	// Dir is the module root (the directory holding go.mod).
	Dir string
	// Path is the module path declared in go.mod.
	Path string
	Fset *token.FileSet
	// Packages is sorted by import path.
	Packages []*Package

	byPath map[string]*Package
	byFile map[string]*Package
}

// lookup returns the loaded package with the given import path, or nil.
func (m *Module) lookup(path string) *Package { return m.byPath[path] }

// packageForFile returns the loaded package owning filename, or nil.
func (m *Module) packageForFile(filename string) *Package {
	if m.byFile == nil {
		m.byFile = make(map[string]*Package)
		for _, pkg := range m.Packages {
			for _, fn := range pkg.Filenames {
				m.byFile[fn] = pkg
			}
		}
	}
	return m.byFile[filename]
}

var moduleDirective = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// LoadModule loads, parses, and type-checks the module rooted at dir.
// Directories named testdata or vendor, hidden directories, nested
// modules, *_test.go files, and files the go tool would not build on this
// platform (build constraints, _GOOS suffixes) are skipped. Type errors
// are recorded per package, not fatal — parse errors are.
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modBytes, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: module root: %w", err)
	}
	match := moduleDirective.FindSubmatch(modBytes)
	if match == nil {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", abs)
	}
	mod := &Module{
		Dir:    abs,
		Path:   string(match[1]),
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
	}

	if err := filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != abs && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != abs {
			// A nested go.mod starts another module (bench/), which
			// "./..." excludes as the go tool does.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		return mod.parseDir(path)
	}); err != nil {
		return nil, err
	}

	sort.Slice(mod.Packages, func(i, j int) bool {
		return mod.Packages[i].Path < mod.Packages[j].Path
	})

	tc := &typechecker{
		mod:  mod,
		std:  importer.ForCompiler(mod.Fset, "source", nil),
		done: make(map[string]*types.Package),
		busy: make(map[string]bool),
	}
	tc.checkAll()
	return mod, nil
}

// checkAll type-checks every module package, in parallel waves along the
// internal dependency order: a package is checked once all its
// module-internal imports are, so a wave's members are independent and
// GOMAXPROCS workers can take them concurrently (go/types itself is safe
// for checking distinct packages; the shared importer state is locked).
// Packages left over when no progress is possible sit on an import
// cycle; they go through the serial recursive path, which names the
// cycle in its error.
func (tc *typechecker) checkAll() {
	// Module-internal dependency edges, from the parsed import specs.
	waiting := make(map[string]int)           // unchecked internal deps
	dependents := make(map[string][]*Package) // dep path -> importers
	for _, pkg := range tc.mod.Packages {
		for dep := range internalImports(tc.mod, pkg) {
			waiting[pkg.Path]++
			dependents[dep] = append(dependents[dep], pkg)
		}
	}

	var ready []*Package
	for _, pkg := range tc.mod.Packages {
		if waiting[pkg.Path] == 0 {
			ready = append(ready, pkg)
		}
	}

	workers := runtime.GOMAXPROCS(0)
	checked := 0
	for len(ready) > 0 {
		wave := ready
		ready = nil
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for _, pkg := range wave {
			wg.Add(1)
			sem <- struct{}{}
			go func(pkg *Package) {
				defer wg.Done()
				defer func() { <-sem }()
				if _, err := tc.checkModule(pkg.Path); err != nil {
					tc.mu.Lock()
					pkg.TypeErrors = append(pkg.TypeErrors, err)
					tc.mu.Unlock()
				}
			}(pkg)
		}
		wg.Wait()
		checked += len(wave)
		for _, pkg := range wave {
			for _, dep := range dependents[pkg.Path] {
				waiting[dep.Path]--
				if waiting[dep.Path] == 0 {
					ready = append(ready, dep)
				}
			}
		}
	}

	// Anything still waiting is on (or behind) an import cycle: fall
	// back to the serial recursive path for the cycle diagnostics.
	if checked < len(tc.mod.Packages) {
		for _, pkg := range tc.mod.Packages {
			if _, err := tc.checkModule(pkg.Path); err != nil {
				pkg.TypeErrors = append(pkg.TypeErrors, err)
			}
		}
	}
}

// internalImports resolves a package's import specs to module-internal
// package paths (the dependency edges the wave scheduler orders by).
func internalImports(mod *Module, pkg *Package) map[string]bool {
	deps := make(map[string]bool)
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if mod.lookup(path) != nil && path != pkg.Path {
				deps[path] = true
			}
		}
	}
	return deps
}

// parseDir parses the non-test Go files of one directory into a Package
// (no-op for directories without Go files).
func (m *Module) parseDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		if !ok {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)

	rel, err := filepath.Rel(m.Dir, dir)
	if err != nil {
		return err
	}
	if rel == "." {
		rel = ""
	}
	rel = filepath.ToSlash(rel)
	path := m.Path
	if rel != "" {
		path = m.Path + "/" + rel
	}
	pkg := &Package{Path: path, ModRel: rel, Dir: dir}
	for _, n := range names {
		fname := filepath.Join(dir, n)
		f, err := parser.ParseFile(m.Fset, fname, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, fname)
	}
	pkg.collectDirectives(m.Fset)
	m.Packages = append(m.Packages, pkg)
	m.byPath[path] = pkg
	return nil
}

// typechecker resolves module-internal imports from the parsed tree
// (recursively, memoized) and everything else through the standard
// library source importer. This sidesteps go/build's module resolution
// entirely: the only packages a Crayfish build may reach are the module's
// own and the standard library's, which is itself one of the enforced
// invariants.
//
// The checker is safe for the wave scheduler's concurrency: done/busy
// are mutex-guarded, each Package's fields are written only by the one
// goroutine checking it, and the source importer — which has no internal
// locking — is serialized behind its own mutex (it memoizes, so after a
// std package's first import the critical section is a map hit).
type typechecker struct {
	mod *Module
	std types.Importer

	mu    sync.Mutex // guards done, busy
	stdMu sync.Mutex // serializes tc.std
	done  map[string]*types.Package
	busy  map[string]bool
}

func (tc *typechecker) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == tc.mod.Path || strings.HasPrefix(path, tc.mod.Path+"/") {
		return tc.checkModule(path)
	}
	if pkg := tc.mod.lookup(path); pkg != nil {
		// Fixture modules may self-import under bare paths.
		return tc.checkModule(path)
	}
	if !stdlibImportPath(path) {
		// Refuse third-party paths here instead of letting the source
		// importer fall into go/build module resolution (which may shell
		// out or touch the network). The layering analyzer reports the
		// import itself; this keeps the type error local and fast.
		return nil, fmt.Errorf("analysis: %q is neither standard library nor module-internal", path)
	}
	tc.stdMu.Lock()
	defer tc.stdMu.Unlock()
	return tc.std.Import(path)
}

func (tc *typechecker) checkModule(path string) (*types.Package, error) {
	tc.mu.Lock()
	if tp, ok := tc.done[path]; ok {
		tc.mu.Unlock()
		return tp, nil
	}
	if tc.busy[path] {
		tc.mu.Unlock()
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	pkg := tc.mod.lookup(path)
	if pkg == nil {
		tc.mu.Unlock()
		return nil, fmt.Errorf("analysis: module package %q not found", path)
	}
	tc.busy[path] = true
	tc.mu.Unlock()
	defer func() {
		tc.mu.Lock()
		delete(tc.busy, path)
		tc.mu.Unlock()
	}()

	pkg.TypesInfo = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: tc,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	tp, _ := conf.Check(path, tc.mod.Fset, pkg.Files, pkg.TypesInfo)
	pkg.Types = tp
	tc.mu.Lock()
	tc.done[path] = tp
	tc.mu.Unlock()
	return tp, nil
}
