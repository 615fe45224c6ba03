// Command crayfishlint runs Crayfish's project-specific static-analysis
// suite (internal/analysis) over the module — the layering/metric/clock
// checkers, the CFG-dataflow analyzers (arenadiscipline, borrowretain,
// lockdiscipline) and deadexport. It is wired into scripts/check.sh as a
// hard gate; docs/STATIC_ANALYSIS.md documents each analyzer and the
// //lint:allow escape hatch.
//
// Usage:
//
//	crayfishlint [-only a,b] [-list] [-json] [./... | <module-dir>]
//
// The default target is the module containing the working directory.
// Exit status is 0 when the tree is clean and 1 when any diagnostic
// (including a type-check failure) is reported. -json replaces the
// line-per-finding output with one machine-readable report on stdout
// (diagnostics with file/line/col/analyzer/message, type errors, and
// the suppression count); the exit-status contract is unchanged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"crayfish/internal/analysis"
)

// jsonDiagnostic is one finding in -json output, module-relative.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the whole -json payload.
type jsonReport struct {
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
	TypeErrors  []string         `json:"typeErrors,omitempty"`
	Findings    int              `json:"findings"`
	Suppressed  int              `json:"suppressed"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	asJSON := flag.Bool("json", false, "emit one machine-readable JSON report instead of line output")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: crayfishlint [-only a,b] [-list] [-json] [./... | <module-dir>]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := analysis.DefaultAnalyzers()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range suite {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fatalf("unknown analyzer %q (try -list)", name)
		}
		suite = filtered
	}

	dir, err := targetDir(flag.Args())
	if err != nil {
		fatalf("%v", err)
	}
	mod, err := analysis.LoadModule(dir)
	if err != nil {
		fatalf("%v", err)
	}

	failures := 0
	var typeErrs []string
	for _, pkg := range mod.Packages {
		for _, terr := range pkg.TypeErrors {
			if !*asJSON {
				fmt.Printf("%v: [typecheck]\n", terr)
			}
			typeErrs = append(typeErrs, terr.Error())
			failures++
		}
	}
	res := analysis.Run(mod, suite)
	failures += len(res.Diagnostics)

	if *asJSON {
		report := jsonReport{
			Diagnostics: []jsonDiagnostic{}, // [] not null when clean
			TypeErrors:  typeErrs,
			Findings:    failures,
			Suppressed:  res.Suppressed,
		}
		for _, d := range res.Diagnostics {
			report.Diagnostics = append(report.Diagnostics, jsonDiagnostic{
				File:     relName(mod.Dir, d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatalf("%v", err)
		}
		if failures > 0 {
			os.Exit(1)
		}
		return
	}

	for _, d := range res.Diagnostics {
		fmt.Println(rel(mod.Dir, d))
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "crayfishlint: %d finding(s)", failures)
		if res.Suppressed > 0 {
			fmt.Fprintf(os.Stderr, " (%d suppressed by //lint:allow)", res.Suppressed)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(1)
	}
}

// targetDir resolves the command's single optional argument: "./..."
// (or no argument) means the module containing the working directory; a
// directory path names a module root directly — used to lint the
// analyzer fixtures themselves.
func targetDir(args []string) (string, error) {
	switch {
	case len(args) == 0 || (len(args) == 1 && strings.HasSuffix(args[0], "...")):
		cwd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		if len(args) == 1 {
			cwd = filepath.Join(cwd, strings.TrimSuffix(strings.TrimSuffix(args[0], "..."), "/"))
		}
		return findModuleRoot(cwd)
	case len(args) == 1:
		return args[0], nil
	default:
		return "", fmt.Errorf("crayfishlint: expected at most one target, got %d", len(args))
	}
}

func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("crayfishlint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// rel shortens a diagnostic's filename to be module-relative for stable,
// readable output.
func rel(modDir string, d analysis.Diagnostic) string {
	d.Pos.Filename = relName(modDir, d.Pos.Filename)
	return d.String()
}

// relName is rel's filename half, shared with the JSON encoder. Paths
// are slash-normalized so the JSON is stable across platforms.
func relName(modDir, filename string) string {
	if r, err := filepath.Rel(modDir, filename); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return filepath.ToSlash(filename)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crayfishlint: "+format+"\n", args...)
	os.Exit(1)
}
