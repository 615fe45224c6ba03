package analysis

import (
	"strconv"
	"strings"
)

// baseRel lists the module-relative packages that form the bottom of the
// import DAG: pure leaf libraries (tensor math, the network model, the
// telemetry registry, the GPU transfer model, the resilience primitives,
// windowing) that every higher layer may depend on and that therefore may
// import nothing but the standard library. A base package that grows a
// module dependency silently inverts the layering and eventually cycles.
// grpcish left the base when it gained retry support: it now sits one
// layer up, importing internal/resilience. The one module import a base
// package may make is a leaf package (leafRel).
var baseRel = map[string]bool{
	"internal/tensor":     true,
	"internal/netsim":     true,
	"internal/telemetry":  true,
	"internal/gpu":        true,
	"internal/resilience": true,
	"internal/window":     true,
	"internal/loadgen":    true,
}

// leafRel lists the packages below the base tier: stdlib-only like the
// base packages, and importable by them. internal/timing is the one
// deadline wait behind every modelled delay (netsim, gpu, resilience)
// and the load generator's pacing, so it cannot sit beside them.
var leafRel = map[string]bool{
	"internal/timing": true,
}

// newLayering enforces the import DAG the architecture docs promise:
//
//   - leaf packages (timing) import only the standard library, and base
//     packages (tensor, netsim, telemetry, gpu, resilience, window,
//     loadgen) import only the standard library and leaf packages;
//   - internal/core (the experiment driver) must not import any SPS
//     engine package (internal/sps/<engine>) — engines are selected at
//     the API layer via the sps registry, so the driver stays
//     engine-agnostic (§3.2's adapter SPI);
//   - nothing imports cmd/... — binaries sit strictly on top;
//   - every import is either standard library or module-internal: the
//     module is dependency-free by design, and a third-party dependency
//     must be an explicit decision, not an accident.
func newLayering() *Analyzer {
	a := &Analyzer{
		Name: "layering",
		Doc:  "enforce the package import DAG (base leaves, engine-agnostic core, no cmd imports, stdlib-only deps)",
	}
	a.Run = func(pass *Pass) {
		mod, pkg := pass.Module, pass.Pkg
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				inModule := path == mod.Path || strings.HasPrefix(path, mod.Path+"/")
				if !inModule && mod.lookup(path) != nil {
					inModule = true // fixture modules with bare paths
				}
				if !inModule && !stdlibImportPath(path) {
					pass.report(imp.Pos(), "import %q is neither standard library nor module-internal; the module is dependency-free by design", path)
					continue
				}
				if !inModule {
					continue
				}
				rel := strings.TrimPrefix(strings.TrimPrefix(path, mod.Path), "/")
				if rel == "cmd" || strings.HasPrefix(rel, "cmd/") {
					pass.report(imp.Pos(), "import of command package %q: nothing may import cmd/... (binaries are the top of the DAG)", path)
				}
				if leafRel[pkg.ModRel] {
					pass.report(imp.Pos(), "leaf package %s may import only the standard library, not %q", pkg.ModRel, path)
				}
				if baseRel[pkg.ModRel] && !leafRel[rel] {
					pass.report(imp.Pos(), "base package %s may import only the standard library and leaf packages, not %q", pkg.ModRel, path)
				}
				if pkg.ModRel == "internal/core" && strings.HasPrefix(rel, "internal/sps/") {
					pass.report(imp.Pos(), "internal/core must stay engine-agnostic: import engines via the sps registry, not %q", path)
				}
			}
		}
	}
	return a
}

// stdlibImportPath reports whether an import path names a standard
// library package: its first element has no dot (the convention module
// paths are required to break).
func stdlibImportPath(path string) bool {
	first := path
	if i := strings.IndexByte(path, '/'); i >= 0 {
		first = path[:i]
	}
	return !strings.Contains(first, ".")
}
