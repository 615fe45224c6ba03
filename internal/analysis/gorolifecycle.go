package analysis

import (
	"go/ast"
	"go/types"
)

// newGoroLifecycle flags fire-and-forget goroutines. Every `go`
// statement in production code must have a join visible at the spawn
// site — the dynamic counterpart is internal/testutil/leakcheck, which
// fails test binaries that exit with stray goroutines. A goroutine
// counts as joined when any of these holds:
//
//   - the enclosing function also calls Add on a sync.WaitGroup (the
//     wg.Add(1); go f() idiom — f is expected to Done);
//   - the spawned function literal's body calls Done or Wait on a
//     sync.WaitGroup;
//   - the literal's body closes a channel or sends on a channel (its
//     termination is observable by the owner);
//
// otherwise the goroutine's lifetime is invisible to its creator: Stop
// can return while it still runs, and under churn (per-run engines,
// per-request handlers) it is a leak. Intentional daemons carry a
// //lint:allow gorolifecycle annotation naming their actual join.
func newGoroLifecycle() *Analyzer {
	a := &Analyzer{
		Name: "gorolifecycle",
		Doc:  "every go statement needs a visible join (WaitGroup, channel close/send) or an annotation",
	}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.TypesInfo
		pass.eachFile(func(f *ast.File) {
			// Walk maintaining the innermost enclosing function body, so
			// each go statement can be judged against its spawn scope.
			var visit func(n ast.Node, encl ast.Node)
			visit = func(n ast.Node, encl ast.Node) {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						walkChildren(n.Body, n, visit)
					}
					return
				case *ast.FuncLit:
					walkChildren(n.Body, n, visit)
					return
				case *ast.GoStmt:
					if !goroutineJoined(info, n, encl) {
						pass.report(n.Pos(), "fire-and-forget goroutine: no WaitGroup Add/Done, channel close, or channel send ties its lifetime to the enclosing scope (join it, or annotate //lint:allow gorolifecycle <reason>)")
					}
				}
				walkChildren(n, encl, visit)
			}
			walkChildren(f, nil, visit)
		})
	}
	return a
}

// walkChildren applies visit to the direct children of n with the given
// enclosing function node.
func walkChildren(n ast.Node, encl ast.Node, visit func(ast.Node, ast.Node)) {
	ast.Inspect(n, func(child ast.Node) bool {
		if child == nil || child == n {
			return child == n
		}
		visit(child, encl)
		return false
	})
}

// goroutineJoined applies the join heuristics to one go statement.
func goroutineJoined(info *types.Info, g *ast.GoStmt, encl ast.Node) bool {
	if encl != nil && bodyOf(encl) != nil && callsWaitGroup(info, bodyOf(encl), "Add") {
		return true
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	joined := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			joined = true
		case *ast.CallExpr:
			if ident, ok := n.Fun.(*ast.Ident); ok && ident.Name == "close" {
				joined = true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "Done" || sel.Sel.Name == "Wait") &&
				isWaitGroup(info, sel.X) {
				joined = true
			}
		}
		return !joined
	})
	return joined
}

func bodyOf(fn ast.Node) *ast.BlockStmt {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// callsWaitGroup reports whether body contains a call to the named
// method on a sync.WaitGroup.
func callsWaitGroup(info *types.Info, body *ast.BlockStmt, method string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return true
		}
		if isWaitGroup(info, sel.X) {
			found = true
		}
		return !found
	})
	return found
}

// isWaitGroup reports whether expr's type is sync.WaitGroup (possibly
// behind a pointer). Without type information it falls back to the
// conventional receiver spelling (an identifier containing "wg" or
// "wait"), so fixtures parse-only still behave sensibly.
func isWaitGroup(info *types.Info, expr ast.Expr) bool {
	if info != nil {
		if tv, ok := info.Types[expr]; ok && tv.Type != nil {
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if ok {
				obj := named.Obj()
				return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
			}
			return false
		}
	}
	ident, ok := expr.(*ast.Ident)
	return ok && ident.Name == "wg"
}
