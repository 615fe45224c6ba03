package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// newDeadExport keeps the root package (the module's API) and internal/
// free of surface nobody needs. cmd/ and examples/ are callers, not
// checked; a checked package earns each exported name through a caller
// in another package's non-test code or in a nested module (bench/) —
// for the root, that is a binary, an example or the bench module. It
// reports:
//
//   - an exported func, type, var, const or method no such caller
//     references, saying who does — that decides the fix;
//   - a dead setting: an exported field of an exported struct that other
//     packages set fields of but never touch (tagged fields are wire
//     formats and exempt);
//   - an unexported func or method with no non-test reference outside its
//     own body, so that unexporting cannot hide dead code.
//
// Test files and nested modules are read by name: an import's selectors
// resolve to its package, any other selector or composite-literal key to
// every method and field of that name, so nothing they might reach is
// flagged. Exempt are methods that satisfy an interface in sight, types
// and aliases reached through the signature of a name another package
// uses, and the names of test-support packages (spstest,
// internal/testutil/...) that other packages' tests call.
func newDeadExport() *Analyzer {
	a := &Analyzer{
		Name: "deadexport",
		Doc:  "every exported name in the root package and internal/ has a caller outside its package; no unexported func is reached only by tests",
	}
	a.Finish = func(pass *Pass) {
		tests, nested, err := scanByName(pass.Module)
		if err != nil {
			pass.reportAt(token.Position{Filename: pass.Module.Dir}, "reading test files and nested modules: %v", err)
			return
		}
		newDeadScan(pass.Module, nested).report(pass, tests)
	}
	return a
}

// byName maps each name a syntactic pass saw — "import/path.Name" when
// qualified, ".Name" for a selector or a composite-literal key — to the
// directories of the files that named it.
type byName map[string]map[string]bool

func (b byName) add(key, dir string) {
	if b[key] == nil {
		b[key] = make(map[string]bool)
	}
	b[key][dir] = true
}

// scanByName reads every _test.go file of the module and every Go file
// of a nested module, skipping testdata, vendor and hidden directories.
func scanByName(mod *Module) (tests, nested byName, err error) {
	tests, nested = byName{}, byName{}
	byDir := make(map[string]*Package, len(mod.Packages))
	for _, pkg := range mod.Packages {
		byDir[pkg.Dir] = pkg
	}
	var roots []string // nested modules
	fset := token.NewFileSet()
	err = filepath.WalkDir(mod.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || path == mod.Dir {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				roots = append(roots, path+string(filepath.Separator))
			}
			return nil
		}
		inNested := false
		for _, r := range roots {
			inNested = inNested || strings.HasPrefix(path, r)
		}
		if !strings.HasSuffix(name, ".go") || !inNested && !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if dir := filepath.Dir(path); inNested {
			nested.addFile(mod, f, dir, nil)
		} else {
			tests.addFile(mod, f, dir, byDir[dir])
		}
		return nil
	})
	return tests, nested, err
}

// addFile records one file's names. own is the package in the file's
// directory: an in-package test may name its objects unqualified.
func (b byName) addFile(mod *Module, f *ast.File, dir string, own *Package) {
	imports := make(map[string]string)
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if pkg := mod.lookup(path); pkg != nil && pkg.Types != nil {
			name := pkg.Types.Name()
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = path
		}
	}
	inPkg := own != nil && own.Types != nil && f.Name.Name == own.Types.Name()
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
				b.add(imports[id.Name]+"."+n.Sel.Name, dir)
				return false
			}
			b.add("."+n.Sel.Name, dir)
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				b.add("."+id.Name, dir)
			}
		case *ast.Ident:
			if inPkg {
				b.add(own.Path+"."+n.Name, dir)
			}
		}
		return true
	})
}

// key is the name under which byName records references to obj.
func key(obj types.Object) string {
	if isMethod(obj) {
		return "." + obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// decl is one checked declaration; own and used record non-test
// references from its own package (outside node) and from any other.
type decl struct {
	pkg       *Package
	node      ast.Node
	own, used bool
}

type deadScan struct {
	mod   *Module
	decls map[types.Object]*decl
	// reached holds the types a caller can hold without naming them.
	reached map[*types.TypeName]bool
	ifaces  map[string][]*types.Interface // every interface in sight, by method
	// fields maps each untagged exported field of an exported struct to
	// its struct; touched holds the fields other packages read or set,
	// built the structs they set any field of.
	fields  map[*types.Var]*types.TypeName
	touched map[*types.Var]bool
	built   map[*types.TypeName]bool
}

func newDeadScan(mod *Module, nested byName) *deadScan {
	d := &deadScan{mod: mod, decls: map[types.Object]*decl{}, reached: map[*types.TypeName]bool{},
		ifaces: map[string][]*types.Interface{}, fields: map[*types.Var]*types.TypeName{},
		touched: map[*types.Var]bool{}, built: map[*types.TypeName]bool{}}
	seen := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok && !seen[iface] {
			seen[iface] = true
			for i := 0; i < iface.NumMethods(); i++ {
				d.ifaces[iface.Method(i).Name()] = append(d.ifaces[iface.Method(i).Name()], iface)
			}
		}
	}
	addScope := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range mod.Packages {
		if pkg.Types == nil {
			continue
		}
		addScope(pkg.Types.Scope())
		for _, imp := range pkg.Types.Imports() {
			addScope(imp.Scope())
		}
		for e, tv := range pkg.TypesInfo.Types {
			if _, ok := e.(*ast.InterfaceType); ok {
				addIface(tv.Type)
			}
		}
		if pkg.ModRel == "" || pkg.ModRel == "internal" || strings.HasPrefix(pkg.ModRel, "internal/") {
			d.collectDecls(pkg)
		}
	}
	for _, pkg := range mod.Packages {
		if pkg.Types != nil {
			d.collectRefs(pkg)
		}
	}
	// A nested module is a caller: what it names, it uses and reaches.
	for obj, dc := range d.decls {
		if nested[key(obj)] != nil {
			dc.used = true
			d.reach(obj.Type())
		}
		if dc.used {
			d.reachAliases(dc)
		}
	}
	for v := range d.fields {
		if nested["."+v.Name()] != nil {
			d.touched[v] = true
			d.reach(v.Type())
		}
	}
	return d
}

// reachAliases marks the aliases a used declaration spells out. The type
// checker resolves an alias to its target, so only the syntax says that
// a caller of DialBroker holds a BrokerClient without naming it.
func (d *deadScan) reachAliases(dc *decl) {
	node := dc.node
	if fn, ok := node.(*ast.FuncDecl); ok {
		node = fn.Type // the signature, not the body
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if tn, ok := dc.pkg.TypesInfo.Uses[id].(*types.TypeName); ok && tn.IsAlias() {
				d.reached[tn] = true
			}
		}
		return true
	})
}

func (d *deadScan) collectDecls(pkg *Package) {
	add := func(id *ast.Ident, node ast.Node) {
		if obj := pkg.TypesInfo.Defs[id]; obj != nil && id.Name != "_" && id.Name != "init" {
			d.decls[obj] = &decl{pkg: pkg, node: node}
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				add(n.Name, n)
				return false
			case *ast.ValueSpec:
				for _, id := range n.Names {
					if id.IsExported() {
						add(id, n)
					}
				}
			case *ast.TypeSpec:
				if !n.Name.IsExported() {
					return false
				}
				add(n.Name, n)
				tn, _ := pkg.TypesInfo.Defs[n.Name].(*types.TypeName)
				switch t := n.Type.(type) {
				case *ast.InterfaceType:
					for _, m := range t.Methods.List {
						for _, id := range m.Names {
							if id.IsExported() {
								add(id, m)
							}
						}
					}
				case *ast.StructType:
					for _, fld := range t.Fields.List {
						for _, id := range fld.Names {
							if v, ok := pkg.TypesInfo.Defs[id].(*types.Var); ok && id.IsExported() && fld.Tag == nil && tn != nil {
								d.fields[v] = tn
							}
						}
					}
				}
				return false
			}
			return true
		})
	}
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// collectRefs books pkg's non-test references, and the struct fields it
// sets — composite-literal keys, assignments, ++/--, &x.F — on structs
// declared elsewhere.
func (d *deadScan) collectRefs(pkg *Package) {
	for id, obj := range pkg.TypesInfo.Uses {
		obj = origin(obj)
		if obj.Pkg() == nil || d.mod.lookup(obj.Pkg().Path()) == nil {
			continue
		}
		dc := d.decls[obj]
		if obj.Pkg() == pkg.Types {
			if dc != nil && (id.Pos() < dc.node.Pos() || id.Pos() >= dc.node.End()) {
				dc.own = true
			}
			continue
		}
		if dc != nil {
			dc.used = true
		}
		if v, ok := obj.(*types.Var); ok && d.fields[v] != nil {
			d.touched[v] = true
		}
		d.reach(obj.Type())
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var targets []ast.Expr
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				targets = []ast.Expr{n.Key}
			case *ast.AssignStmt:
				targets = n.Lhs
			case *ast.IncDecStmt:
				targets = []ast.Expr{n.X}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					targets = []ast.Expr{n.X}
				}
			}
			for _, e := range targets {
				id, _ := e.(*ast.Ident)
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					id = sel.Sel
				}
				if v, ok := pkg.TypesInfo.Uses[id].(*types.Var); ok && v.Pkg() != pkg.Types && d.fields[v.Origin()] != nil {
					d.built[d.fields[v.Origin()]] = true
				}
			}
			return true
		})
	}
}

// reach marks the named types a holder of a t can use without naming.
func (d *deadScan) reach(t types.Type) {
	switch t := t.(type) {
	case *types.Named:
		if tn := t.Origin().Obj(); !d.reached[tn] {
			d.reached[tn] = true
			for i := 0; i < t.TypeArgs().Len(); i++ {
				d.reach(t.TypeArgs().At(i))
			}
		}
	case *types.Alias:
		d.reach(types.Unalias(t))
	case interface{ Elem() types.Type }: // pointer, slice, array, chan, map
		if m, ok := t.(*types.Map); ok {
			d.reach(m.Key())
		}
		d.reach(t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				d.reach(tup.At(i).Type())
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			d.reach(t.Field(i).Type())
		}
	}
}

// satisfies reports whether a method is called through an interface: its
// receiver implements an interface in sight (the method's own aside)
// that has the method's name. An interface's own method counts when a
// type of another package implements the interface. Unwrap, Is and As
// serve errors.Is/As, whose interfaces are unexported.
func (d *deadScan) satisfies(m *types.Func) bool {
	if m.Name() == "Unwrap" || m.Name() == "Is" || m.Name() == "As" {
		return true
	}
	recv := m.Type().(*types.Signature).Recv().Type()
	for _, iface := range d.ifaces[m.Name()] {
		if own, _, _ := types.LookupFieldOrMethod(iface, false, m.Pkg(), m.Name()); own == m {
			continue
		}
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	iface, ok := recv.Underlying().(*types.Interface)
	for _, pkg := range d.mod.Packages {
		if !ok || pkg.Types == nil || pkg.Types == m.Pkg() {
			continue
		}
		for _, name := range pkg.Types.Scope().Names() {
			tn, isType := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if isType && !types.IsInterface(tn.Type()) && types.Implements(types.NewPointer(tn.Type()), iface) {
				return true
			}
		}
	}
	return false
}

func (d *deadScan) report(pass *Pass, tests byName) {
	for obj, dc := range d.decls {
		what := describe(obj)
		if !obj.Exported() {
			if fn, ok := obj.(*types.Func); ok && !dc.own && !(isMethod(fn) && d.satisfies(fn)) {
				pass.report(obj.Pos(), "%s has no non-test reference outside its own body: delete it, or move it into a _test.go file", what)
			}
			continue
		}
		tn, isType := obj.(*types.TypeName)
		if fn, ok := obj.(*types.Func); dc.used || ok && isMethod(fn) && d.satisfies(fn) || isType && d.reached[tn] {
			continue
		}
		scope := dc.pkg.ModRel
		if scope == "" {
			scope = "the root package"
		}
		var ownTests bool
		var others []string
		for dir := range tests[key(obj)] {
			if dir == dc.pkg.Dir {
				ownTests = true
			} else {
				others = append(others, relDir(d.mod, dir))
			}
		}
		sort.Strings(others)
		switch {
		case len(others) > 0 && (strings.HasSuffix(obj.Pkg().Name(), "test") || strings.HasPrefix(dc.pkg.ModRel, "internal/testutil/")):
		case len(others) > 0:
			pass.report(obj.Pos(), "%s is reached from outside %s only by tests (%s): move it to a test-support package (spstest, clustertest, leakcheck) or mark it //lint:allow deadexport <reason>",
				what, scope, strings.Join(others, ", "))
		case dc.own:
			pass.report(obj.Pos(), "%s is used only inside %s: unexport it", what, scope)
		case ownTests:
			pass.report(obj.Pos(), "%s is reached only by %s's own tests: delete it, or move it into a _test.go file", what, scope)
		default:
			pass.report(obj.Pos(), "%s is referenced nowhere: delete it", what)
		}
	}
	for v, s := range d.fields {
		if d.built[s] && !d.touched[v] {
			pass.report(v.Pos(), "field %s.%s is a dead setting: other packages set %s but never this field: make it a constant or an unexported field",
				s.Name(), v.Name(), s.Name())
		}
	}
}

// describe names obj as a reader finds it: "func F", "method *T.M".
func describe(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			return "method " + types.TypeString(recv.Type(), types.RelativeTo(o.Pkg())) + "." + o.Name()
		}
		return "func " + o.Name()
	case *types.TypeName:
		return "type " + o.Name()
	case *types.Const:
		return "const " + o.Name()
	}
	return "var " + obj.Name()
}

func relDir(mod *Module, dir string) string {
	if r, err := filepath.Rel(mod.Dir, dir); err == nil {
		return filepath.ToSlash(r)
	}
	return dir
}
