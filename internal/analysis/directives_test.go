package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintSnippet builds a one-package throwaway module whose single file
// lives in internal/loadgen — a clock-restricted package, so every
// time.Now reference is a deterministic clockdiscipline finding to hang
// directive-association tests on — and runs the default suite over it.
func lintSnippet(t *testing.T, src string) Result {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module snippet.test\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgDir := filepath.Join(dir, "internal", "loadgen")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "snippet.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	return Run(mod, DefaultAnalyzers())
}

// diagsOf filters a result to one analyzer's messages.
func diagsOf(res Result, analyzer string) []Diagnostic {
	var out []Diagnostic
	for _, d := range res.Diagnostics {
		if d.Analyzer == analyzer {
			out = append(out, d)
		}
	}
	return out
}

func TestDirectiveTrailingSameLine(t *testing.T) {
	res := lintSnippet(t, `package loadgen

import "time"

var Stamp = time.Now //lint:allow clockdiscipline snippet: trailing form
`)
	if n := len(diagsOf(res, "clockdiscipline")); n != 0 {
		t.Errorf("trailing directive did not suppress: %d findings", n)
	}
	if res.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", res.Suppressed)
	}
	if n := len(diagsOf(res, "lintdirective")); n != 0 {
		t.Errorf("clean trailing directive reported: %v", diagsOf(res, "lintdirective"))
	}
}

func TestDirectiveLineAbove(t *testing.T) {
	res := lintSnippet(t, `package loadgen

import "time"

//lint:allow clockdiscipline snippet: line-above form
var Stamp = time.Now
`)
	if n := len(diagsOf(res, "clockdiscipline")); n != 0 {
		t.Errorf("line-above directive did not suppress: %d findings", n)
	}
	if res.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", res.Suppressed)
	}
}

// A blank line between the directive and the finding breaks the
// association: the finding stands, and the directive is stale.
func TestDirectiveBlankLineBreaksAssociation(t *testing.T) {
	res := lintSnippet(t, `package loadgen

import "time"

//lint:allow clockdiscipline snippet: too far away

var Stamp = time.Now
`)
	if n := len(diagsOf(res, "clockdiscipline")); n != 1 {
		t.Errorf("finding across a blank line was suppressed: %d findings, want 1", n)
	}
	stale := diagsOf(res, "lintdirective")
	if len(stale) != 1 || !strings.Contains(stale[0].Message, "suppresses nothing") {
		t.Errorf("directive across a blank line should be stale, got %v", stale)
	}
}

// A directive above a declaration covers the declaration line only —
// not the first finding inside the body.
func TestDirectiveDoesNotCrossDeclBoundary(t *testing.T) {
	res := lintSnippet(t, `package loadgen

import "time"

//lint:allow clockdiscipline snippet: misplaced above the decl
func Stamp() time.Time {
	return time.Now()
}
`)
	if n := len(diagsOf(res, "clockdiscipline")); n != 1 {
		t.Errorf("finding inside the body was suppressed by a decl-line directive: %d findings, want 1", n)
	}
	stale := diagsOf(res, "lintdirective")
	if len(stale) != 1 || !strings.Contains(stale[0].Message, "suppresses nothing") {
		t.Errorf("decl-line directive should be stale, got %v", stale)
	}
}

func TestDirectiveBlockForm(t *testing.T) {
	res := lintSnippet(t, `package loadgen

import "time"

var Stamp = time.Now /*lint:allow clockdiscipline snippet: block form*/
`)
	if n := len(diagsOf(res, "clockdiscipline")); n != 0 {
		t.Errorf("block directive did not suppress: %d findings", n)
	}
	if res.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", res.Suppressed)
	}
}

// Two directives can share a line in block form; each is parsed and
// judged independently — here one suppresses and the other is stale.
func TestDirectiveMultiplePerLine(t *testing.T) {
	res := lintSnippet(t, `package loadgen

import "time"

var Stamp = time.Now /*lint:allow clockdiscipline snippet: real*/ /*lint:allow gorolifecycle snippet: stale*/
`)
	if n := len(diagsOf(res, "clockdiscipline")); n != 0 {
		t.Errorf("first of two same-line directives did not suppress: %d findings", n)
	}
	stale := diagsOf(res, "lintdirective")
	if len(stale) != 1 || !strings.Contains(stale[0].Message, "no gorolifecycle finding") {
		t.Errorf("second same-line directive should be stale, got %v", stale)
	}
}

// A block directive spanning lines cannot say which line it covers: it
// is malformed, not silently dropped.
func TestDirectiveMultilineBlockIsBad(t *testing.T) {
	res := lintSnippet(t, `package loadgen

import "time"

/*lint:allow clockdiscipline snippet:
spread over two lines*/
var Stamp = time.Now
`)
	if n := len(diagsOf(res, "clockdiscipline")); n != 1 {
		t.Errorf("multiline block directive suppressed a finding: want it inert")
	}
	bad := diagsOf(res, "lintdirective")
	if len(bad) != 1 || !strings.Contains(bad[0].Message, "one line") {
		t.Errorf("multiline block directive should be malformed, got %v", bad)
	}
}

// Prefix words that merely start with lint:allow are not directives.
func TestDirectiveBoundary(t *testing.T) {
	res := lintSnippet(t, `package loadgen

//lint:allowance is not a directive
func Idle() int { return 0 }
`)
	if n := len(diagsOf(res, "lintdirective")); n != 0 {
		t.Errorf("//lint:allowance parsed as a directive: %v", diagsOf(res, "lintdirective"))
	}
}

// A directive naming an analyzer outside the active suite is never
// reported stale: a partial run proves nothing about it.
func TestDirectiveStaleSkipsInactiveAnalyzers(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module snippet.test\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package snippet

func Idle() int {
	//lint:allow gorolifecycle kept for a suite that is not running
	return 0
}
`
	if err := os.WriteFile(filepath.Join(dir, "snippet.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(mod, []*Analyzer{newClockDiscipline()})
	if n := len(diagsOf(res, "lintdirective")); n != 0 {
		t.Errorf("stale check ran against an inactive analyzer: %v", diagsOf(res, "lintdirective"))
	}
}
