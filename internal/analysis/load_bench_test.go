package analysis

import (
	"testing"
)

// BenchmarkLintModule pins the full-module lint wall-clock: load + parse
// + parallel type-check + the whole default suite over the real module.
// The acceptance bar for loader changes is that this stays no worse than
// the serial loader despite the CFG-based analyzers (run with
// `go test ./internal/analysis -bench LintModule -benchtime 3x`).
func BenchmarkLintModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mod, err := LoadModule("../..")
		if err != nil {
			b.Fatal(err)
		}
		res := Run(mod, DefaultAnalyzers())
		if len(res.Diagnostics) != 0 {
			b.Fatalf("lint of the real module should be clean, got %d diagnostics (first: %v)",
				len(res.Diagnostics), res.Diagnostics[0])
		}
	}
}

// TestParallelLoadMatchesSerialView checks the wave-parallel loader
// produces a complete, consistent module: every package type-checked,
// cross-package type identity intact (the arena type seen from a
// dependent package is the tensor package's own), and no type errors
// outside the fixtures that seed them. Under -race this doubles as the
// loader's data-race exercise.
func TestParallelLoadMatchesSerialView(t *testing.T) {
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Packages) < 15 {
		t.Fatalf("real module loaded only %d packages", len(mod.Packages))
	}
	if mod.lookup("crayfish/bench") != nil {
		t.Fatal("bench/ has its own go.mod but was loaded as part of this module")
	}
	tensorPkg := mod.lookup("crayfish/internal/tensor")
	modelPkg := mod.lookup("crayfish/internal/model")
	if tensorPkg == nil || modelPkg == nil {
		t.Fatal("tensor or model package missing from the load")
	}
	for _, pkg := range mod.Packages {
		if pkg.Types == nil {
			t.Errorf("package %s has no type information", pkg.Path)
		}
		if len(pkg.TypeErrors) != 0 {
			t.Errorf("package %s has type errors: %v", pkg.Path, pkg.TypeErrors[0])
		}
	}
	// Cross-package identity: model's view of tensor.Arena must be the
	// very object tensor declares, or analyzer type tests would misfire.
	arena := tensorPkg.Types.Scope().Lookup("Arena")
	if arena == nil {
		t.Fatal("tensor.Arena not in the tensor package scope")
	}
	seen := false
	for _, imp := range modelPkg.Types.Imports() {
		if imp.Path() == "crayfish/internal/tensor" {
			seen = imp.Scope().Lookup("Arena") == arena
		}
	}
	if !seen {
		t.Error("model's imported view of tensor.Arena is not identical to tensor's own (shared importer broken)")
	}
}
