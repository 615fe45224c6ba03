// Package analysis is Crayfish's project-specific static-analysis
// framework, built only on the standard library's go/ast, go/parser, and
// go/types (source importer) — no golang.org/x/tools dependency, keeping
// the module dependency-free (an invariant the layering analyzer itself
// enforces).
//
// The paper's methodology (§4.3) depends on the harness never perturbing
// the measurement: the broker must stay off the critical path, timestamps
// must flow through the broker/netsim clock, and telemetry names must
// match their documented contract. Those invariants are enforceable
// mechanically, and this package is the mechanism: a Module loader, a
// small Analyzer interface, and the project's analyzer suite
// (DefaultAnalyzers). The cmd/crayfishlint driver wires them together;
// docs/STATIC_ANALYSIS.md documents each analyzer and its rationale.
//
// Suppression: a diagnostic can be silenced with a
//
//	//lint:allow <analyzer> <reason>
//
// comment on the flagged line or on a comment line directly above it.
// The reason is mandatory; a bare directive is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one project invariant checker. Analyzers are stateful and
// single-use: the driver creates a fresh suite per run (see
// DefaultAnalyzers), calls Run once per package, then Finish once after
// every package has been visited (for whole-module checks such as
// doc↔code metric-name drift).
type Analyzer struct {
	// Name is the analyzer's identifier, used in output and in
	// //lint:allow directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// Finish, if set, is called after all packages ran; it reports
	// whole-module findings through the pass (whose Pkg is nil).
	Finish func(*Pass)
}

// Pass carries one analyzer's view of one package plus the reporting
// sink. Report applies //lint:allow suppression before recording.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module
	// Pkg is the package under analysis; nil during Finish.
	Pkg *Package

	diags      *[]Diagnostic
	suppressed *int
}

// report records a diagnostic at pos unless an allow directive covers it.
func (p *Pass) report(pos token.Pos, format string, args ...any) {
	position := p.Module.Fset.Position(pos)
	pkg := p.Pkg
	if pkg == nil && p.Module != nil {
		// Finish-phase findings still anchor to a source line; resolve
		// the owning package so //lint:allow works for them too.
		pkg = p.Module.packageForFile(position.Filename)
	}
	if pkg != nil && pkg.allows(p.Analyzer.Name, position) {
		*p.suppressed++
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// reportAt records a diagnostic at an explicit position (used for
// findings anchored in non-Go files, e.g. the metrics contract doc,
// where //lint:allow suppression does not apply).
func (p *Pass) reportAt(pos token.Position, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Result is one full run of an analyzer suite over a module.
type Result struct {
	Diagnostics []Diagnostic
	// Suppressed counts findings silenced by //lint:allow directives.
	Suppressed int
}

// Run executes the suite over every package of the module and returns
// the aggregated, position-sorted diagnostics. Malformed directives are
// reported under the "lintdirective" pseudo-analyzer.
func Run(mod *Module, suite []*Analyzer) Result {
	var res Result
	for _, pkg := range mod.Packages {
		reportBadDirectives(mod, pkg, &res.Diagnostics)
		for _, a := range suite {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Module: mod, Pkg: pkg,
				diags: &res.Diagnostics, suppressed: &res.Suppressed}
			a.Run(pass)
		}
	}
	for _, a := range suite {
		if a.Finish == nil {
			continue
		}
		pass := &Pass{Analyzer: a, Module: mod,
			diags: &res.Diagnostics, suppressed: &res.Suppressed}
		a.Finish(pass)
	}
	// With every pass done, any well-formed directive that suppressed
	// nothing is stale. Only a full-suite view can tell: directives for
	// analyzers outside this suite are skipped.
	suiteNames := make(map[string]bool, len(suite))
	for _, a := range suite {
		suiteNames[a.Name] = true
	}
	for _, pkg := range mod.Packages {
		reportStaleDirectives(pkg, suiteNames, &res.Diagnostics)
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return res
}

// DefaultAnalyzers returns a fresh instance of the full Crayfish suite.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		newLayering(),
		newMetricNames(),
		newClockDiscipline(),
		newGoroLifecycle(),
		newErrcheckLite(),
		newHotPathAlloc(),
		newArenaDiscipline(),
		newBorrowRetain(),
		newLockDiscipline(),
		newDeadExport(),
	}
}

// eachFile walks every file of the pass's package.
func (p *Pass) eachFile(fn func(*ast.File)) {
	for _, f := range p.Pkg.Files {
		fn(f)
	}
}
