package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"

	"crayfish/internal/analysis/metricdoc"
)

// contractDoc is the module-relative path of the metrics contract that
// metricnames checks registrations against.
const contractDoc = "docs/OBSERVABILITY.md"

// newMetricNames enforces the telemetry contract in both directions:
// every Registry.Counter/Gauge/Histogram registration must use a name
// (string constant, or constant prefix + dynamic suffix) documented in
// docs/OBSERVABILITY.md with the matching kind, and every documented
// metric must be registered somewhere in the tree. Drift either way is
// an error — dashboards are built on the documented names, and dead doc
// rows teach readers metrics that do not exist.
func newMetricNames() *Analyzer {
	a := &Analyzer{
		Name: "metricnames",
		Doc:  "telemetry registrations and docs/OBSERVABILITY.md must agree in both directions",
	}
	var (
		contract *metricdoc.Contract
		loadErr  error
		loaded   bool
		// registered tracks which documented families the code actually
		// creates, keyed by documented name.
		registered = make(map[string]bool)
	)
	load := func(mod *Module) {
		if loaded {
			return
		}
		loaded = true
		contract, loadErr = metricdoc.ParseFile(filepath.Join(mod.Dir, filepath.FromSlash(contractDoc)))
	}

	a.Run = func(pass *Pass) {
		load(pass.Module)
		if loadErr != nil {
			return // reported once in Finish
		}
		info := pass.Pkg.TypesInfo
		pass.eachFile(func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				kind, ok := registryCallKind(info, call)
				if !ok {
					return true
				}
				arg := call.Args[0]
				if name, ok := constantString(info, arg); ok {
					m := contract.Match(name)
					switch {
					case m == nil:
						pass.report(arg.Pos(), "%s metric %q is not documented in %s", kind, name, contractDoc)
					case m.Kind != kind:
						pass.report(arg.Pos(), "metric %q registered as %s but documented as %s (%s:%d)", name, kind, m.Kind, contractDoc, m.Line)
					default:
						registered[m.Name] = true
					}
					return true
				}
				if prefix, ok := constantPrefix(info, arg); ok {
					m := contract.MatchPrefix(prefix)
					switch {
					case m == nil:
						pass.report(arg.Pos(), "dynamic %s metric with prefix %q has no wildcard row (`%s<suffix>`) in %s", kind, prefix, prefix, contractDoc)
					case m.Kind != kind:
						pass.report(arg.Pos(), "metric family %q registered as %s but documented as %s (%s:%d)", m.Name, kind, m.Kind, contractDoc, m.Line)
					default:
						registered[m.Name] = true
					}
					return true
				}
				pass.report(arg.Pos(), "%s metric name must be a string constant or constant prefix + dynamic suffix, so the contract stays statically checkable", kind)
				return true
			})
		})
	}

	a.Finish = func(pass *Pass) {
		if loadErr != nil {
			pass.reportAt(token.Position{Filename: contractDoc, Line: 1},
				"cannot load metrics contract: %v", loadErr)
			return
		}
		for _, m := range contract.Metrics {
			if !registered[m.Name] {
				pass.reportAt(token.Position{Filename: contract.Path, Line: m.Line},
					"metric %q is documented but never registered in the tree", m.Name)
			}
		}
	}
	return a
}

// registryCallKind reports whether call is a telemetry registration —
// a Counter/Gauge/Histogram method on a telemetry.Registry — and which
// metric kind it creates.
func registryCallKind(info *types.Info, call *ast.CallExpr) (metricdoc.Kind, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	var kind metricdoc.Kind
	switch sel.Sel.Name {
	case "Counter":
		kind = metricdoc.Counter
	case "Gauge":
		kind = metricdoc.Gauge
	case "Histogram":
		kind = metricdoc.Histogram
	default:
		return "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return "", false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Name() != "Registry" || obj.Pkg() == nil || obj.Pkg().Name() != "telemetry" {
		return "", false
	}
	return kind, true
}

// constantString evaluates expr as a compile-time string constant
// (literal, concatenation of literals, or named constant).
func constantString(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// constantPrefix handles the dynamic-name idiom `"stage.family." + x`:
// a binary + whose left operand is a string constant. Deeper left spines
// ("a" + "b" + x) fold naturally because the checker constant-folds the
// left subtree.
func constantPrefix(info *types.Info, expr ast.Expr) (string, bool) {
	bin, ok := ast.Unparen(expr).(*ast.BinaryExpr)
	if !ok || bin.Op != token.ADD {
		return "", false
	}
	return constantString(info, bin.X)
}
