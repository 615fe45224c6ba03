package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture module under testdata/src seeds at least one violation per
// analyzer; `// want <analyzer>[,<analyzer>...]` markers on the seeded
// lines are the expected-findings oracle.

var (
	fixtureOnce sync.Once
	fixtureMod  *Module
	fixtureRes  Result
	fixtureErr  error
)

func fixture(t *testing.T) (*Module, Result) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureMod, fixtureErr = LoadModule(filepath.Join("testdata", "src"))
		if fixtureErr == nil {
			fixtureRes = Run(fixtureMod, DefaultAnalyzers())
		}
	})
	if fixtureErr != nil {
		t.Fatalf("loading fixture module: %v", fixtureErr)
	}
	return fixtureMod, fixtureRes
}

var wantMarker = regexp.MustCompile(`// want ([a-z]+(?:,[a-z]+)*)\s*$`)

// wantSet scans the fixture sources for want markers, returning
// "relpath:line:analyzer" keys.
func wantSet(t *testing.T, modDir string) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	err := filepath.WalkDir(modDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(modDir, path)
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantMarker.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, name := range strings.Split(m[1], ",") {
				want[fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), line, name)] = true
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSuiteMatchesFixtureMarkers runs the whole default suite over the
// fixture module and requires its Go-file diagnostics to match the want
// markers exactly — every seeded violation is caught, and nothing
// unseeded is flagged.
func TestSuiteMatchesFixtureMarkers(t *testing.T) {
	mod, res := fixture(t)
	want := wantSet(t, mod.Dir)

	got := make(map[string]bool)
	for _, d := range res.Diagnostics {
		if !strings.HasSuffix(d.Pos.Filename, ".go") || d.Analyzer == "lintdirective" {
			continue
		}
		rel, err := filepath.Rel(mod.Dir, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), d.Pos.Line, d.Analyzer)] = true
	}

	for key := range want {
		if !got[key] {
			t.Errorf("seeded violation not caught: %s", key)
		}
	}
	for key := range got {
		if !want[key] {
			t.Errorf("unexpected diagnostic: %s", key)
		}
	}
}

// TestEveryAnalyzerCatchesItsSeed is the per-analyzer acceptance check:
// every analyzer in the default suite reports at least one fixture
// finding.
func TestEveryAnalyzerCatchesItsSeed(t *testing.T) {
	_, res := fixture(t)
	found := make(map[string]int)
	for _, d := range res.Diagnostics {
		found[d.Analyzer]++
	}
	for _, a := range DefaultAnalyzers() {
		if found[a.Name] == 0 {
			t.Errorf("analyzer %s caught nothing in the fixture module", a.Name)
		}
	}
}

// TestMetricNamesReverseDrift checks the doc→code direction: a
// documented metric that is registered nowhere is reported, anchored at
// the contract document.
func TestMetricNamesReverseDrift(t *testing.T) {
	_, res := fixture(t)
	var docDiags []Diagnostic
	for _, d := range res.Diagnostics {
		if d.Analyzer == "metricnames" && strings.HasSuffix(d.Pos.Filename, ".md") {
			docDiags = append(docDiags, d)
		}
	}
	if len(docDiags) != 1 {
		t.Fatalf("got %d doc-anchored metricnames diagnostics, want 1: %v", len(docDiags), docDiags)
	}
	if !strings.Contains(docDiags[0].Message, `"app.ghost"`) {
		t.Errorf("reverse-drift diagnostic does not name app.ghost: %s", docDiags[0].Message)
	}
}

// TestDirectiveSuppressionAndGrammar: well-formed lint:allow comments
// suppress (the fixtures carry seven, one in block-comment form), a
// directive without a reason is itself reported, and a well-formed
// directive that suppresses nothing is reported as stale.
func TestDirectiveSuppressionAndGrammar(t *testing.T) {
	_, res := fixture(t)
	if res.Suppressed != 7 {
		t.Errorf("suppressed = %d, want 7 (clockdiscipline line+block, gorolifecycle, errchecklite, hotpathalloc, lockdiscipline, deadexport fixtures)", res.Suppressed)
	}
	var bad []Diagnostic
	for _, d := range res.Diagnostics {
		if d.Analyzer == "lintdirective" {
			bad = append(bad, d)
		}
	}
	if len(bad) != 2 {
		t.Fatalf("got %d lintdirective diagnostics %v, want 2 (reason-less + stale, both in clock.go)", len(bad), bad)
	}
	for _, d := range bad {
		if !strings.Contains(d.Pos.Filename, "clock.go") {
			t.Errorf("lintdirective diagnostic outside clock.go: %v", d)
		}
	}
	if !strings.Contains(bad[0].Message, "missing reason") {
		t.Errorf("first lintdirective diagnostic should be the reason-less one, got: %s", bad[0].Message)
	}
	if !strings.Contains(bad[1].Message, "suppresses nothing") {
		t.Errorf("second lintdirective diagnostic should be the stale one, got: %s", bad[1].Message)
	}
}

// TestDeadExportDispositions: each deadexport seed's message names who
// references it, which is what decides the fix. The exemptions (a
// Stringer method, a type reached through Open's signature, a root alias
// reached through the root Open's, a root name examples/demo calls, a
// method the bench module selects, a tagged field, a test-support
// package, an allowed name) are pinned silent by
// TestSuiteMatchesFixtureMarkers.
func TestDeadExportDispositions(t *testing.T) {
	_, res := fixture(t)
	want := map[string]string{
		"func InternalOnly":     "used only inside internal/deadexp: unexport it",
		"func OwnTestsOnly":     "reached only by internal/deadexp's own tests: delete it, or move it into a _test.go file",
		"func OtherTestsOnly":   "reached from outside internal/deadexp only by tests (cmd/tool): move it to a test-support package",
		"func Nowhere":          "referenced nowhere: delete it",
		"method *Handle.Rewind": "referenced nowhere: delete it",
		"func testHelper":       "no non-test reference outside its own body",
		"func TestsOnly":        "reached only by the root package's own tests: delete it, or move it into a _test.go file",
		"field Settings.Burst":  "dead setting: other packages set Settings but never this field",
	}
	for _, d := range res.Diagnostics {
		if d.Analyzer != "deadexport" {
			continue
		}
		for name, msg := range want {
			if strings.HasPrefix(d.Message, name+" ") {
				if !strings.Contains(d.Message, msg) {
					t.Errorf("%s: message %q, want it to say %q", name, d.Message, msg)
				}
				delete(want, name)
			}
		}
	}
	for name := range want {
		t.Errorf("no deadexport finding for %s", name)
	}
}

// TestLoaderShape sanity-checks the module loader: module path, package
// discovery, and module-relative paths.
func TestLoaderShape(t *testing.T) {
	mod, _ := fixture(t)
	if mod.Path != "fixture.test" {
		t.Fatalf("module path = %q, want fixture.test", mod.Path)
	}
	for _, want := range []string{
		"fixture.test/telemetry",
		"fixture.test/metrics",
		"fixture.test/internal/core",
		"fixture.test/cmd/tool",
	} {
		if mod.lookup(want) == nil {
			t.Errorf("package %s not loaded", want)
		}
	}
	core := mod.lookup("fixture.test/internal/core")
	if core.ModRel != "internal/core" {
		t.Errorf("core.ModRel = %q, want internal/core", core.ModRel)
	}
	if len(core.TypeErrors) == 0 {
		t.Error("core imports github.com/nope/dep; expected recorded type errors")
	}
	if tel := mod.lookup("fixture.test/telemetry"); len(tel.TypeErrors) != 0 {
		t.Errorf("telemetry should type-check cleanly, got %v", tel.TypeErrors)
	}
}

// TestDiagnosticsSorted: output order is deterministic (file, then line,
// then analyzer).
func TestDiagnosticsSorted(t *testing.T) {
	_, res := fixture(t)
	if !sort.SliceIsSorted(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	}) {
		t.Error("diagnostics are not sorted")
	}
}
