package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// clockRestricted lists the module-relative packages that sit on the
// measurement's timestamp path. The paper's latency pipeline (§3.3) is
// producer CreateTime → broker LogAppendTime → consumer, with the broker
// clock injectable (broker.Config's clock) and all modelled waiting owned
// by netsim.Profile / gpu's transfer model. Inside these packages a raw
// wall-clock read or ad-hoc sleep either bypasses the injected clock
// (making timestamp tests nondeterministic) or adds unmodelled delay to
// the measurement path — exactly the perturbation §4.3 verifies the
// harness does not introduce. The fault injector joins the list because
// its event schedule and delay jitter must replay deterministically: a
// stray wall-clock read there breaks the byte-identical fault log.
// The micro-batcher joins because its linger deadline and AIMD latency
// window are part of the measured operator latency: both must run off
// the injectable batching clock so trigger tests are deterministic.
// The load generator joins because its arrival schedules are promised to
// be byte-identical per seed and its pacer is the instrument that stamps
// the offered load: both must run off the injectable loadgen.Clock.
var clockRestricted = []string{
	"internal/broker",
	"internal/netsim",
	"internal/gpu",
	"internal/faults",
	"internal/batching",
	"internal/loadgen",
}

// clockBanned is the set of time-package functions that must not be
// referenced raw in restricted packages.
var clockBanned = map[string]bool{
	"Now":   true,
	"Sleep": true,
	"After": true,
	"Tick":  true,
}

// newClockDiscipline flags raw time.Now / time.Sleep (and After/Tick)
// references in timestamp-path packages. Legitimate uses — the broker's
// documented default clock, netsim's own modelled sleep — carry a
// //lint:allow clockdiscipline annotation stating why.
func newClockDiscipline() *Analyzer {
	a := &Analyzer{
		Name: "clockdiscipline",
		Doc:  "timestamp-path packages (broker, netsim, gpu, faults, batching, loadgen) must route time through the injected clock / network model",
	}
	a.Run = func(pass *Pass) {
		if !clockRestrictedPkg(pass.Pkg.ModRel) {
			return
		}
		info := pass.Pkg.TypesInfo
		pass.eachFile(func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !clockBanned[sel.Sel.Name] {
					return true
				}
				ident, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				if !isPackageRef(info, ident, "time") {
					return true
				}
				pass.report(sel.Pos(), "raw time.%s in timestamp-path package %s: route through the injected clock (broker.Config's clock) or the netsim/gpu delay model, or annotate //lint:allow clockdiscipline <reason>", sel.Sel.Name, pass.Pkg.ModRel)
				return true
			})
		})
	}
	return a
}

func clockRestrictedPkg(modRel string) bool {
	for _, r := range clockRestricted {
		if modRel == r || strings.HasPrefix(modRel, r+"/") {
			return true
		}
	}
	return false
}

// isPackageRef reports whether ident resolves to the import of the named
// standard-library package (alias-safe), falling back to the spelled
// name when type information is unavailable.
func isPackageRef(info *types.Info, ident *ast.Ident, pkgPath string) bool {
	if info != nil {
		if obj, ok := info.Uses[ident]; ok {
			pn, ok := obj.(*types.PkgName)
			return ok && pn.Imported().Path() == pkgPath
		}
	}
	return ident.Name == pkgPath
}
