package analysis

import (
	"go/ast"
	"go/types"
)

// newErrcheckLite flags call statements that silently discard an error
// returned by a module-internal function or method (expression
// statements and defers; `_ = f()` is an explicit, visible discard and
// is allowed). The check is scoped to module-internal callees on
// purpose: those signatures are ours, so an ignored error there is
// either a bug or a missing annotation — while fmt.Println-style stdlib
// noise stays out.
func newErrcheckLite() *Analyzer {
	a := &Analyzer{
		Name: "errchecklite",
		Doc:  "errors returned by module-internal functions must not be silently discarded",
	}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.TypesInfo
		pass.eachFile(func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				var call *ast.CallExpr
				switch n := n.(type) {
				case *ast.ExprStmt:
					call, _ = n.X.(*ast.CallExpr)
				case *ast.DeferStmt:
					call = n.Call
				}
				if call == nil {
					return true
				}
				if !returnsError(info, call) {
					return true
				}
				callee := calleeObject(info, call)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				if pass.Module.lookup(callee.Pkg().Path()) == nil {
					return true // not module-internal
				}
				pass.report(call.Pos(), "discarded error from %s.%s (handle it, or write `_ = ...` to discard explicitly)", callee.Pkg().Name(), callee.Name())
				return true
			})
		})
	}
	return a
}

// returnsError reports whether the call's result contains an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType)
}

// calleeObject resolves the called function or method object, or nil for
// indirect calls (function values, conversions).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun]; ok {
			if _, isFunc := obj.(*types.Func); isFunc {
				return obj
			}
		}
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fun.Sel]; ok {
			if _, isFunc := obj.(*types.Func); isFunc {
				return obj
			}
		}
	}
	return nil
}
