package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lentPrefix marks a parameter as lent in a function's doc comment:
//
//	//lint:lent <param> [<param>...]
//
// A lent parameter (typically a buffer or record slice) is owned by the
// caller for reuse after the call returns: the function may read it and
// use it as scratch, but must not retain it.
const lentPrefix = "//lint:lent"

// borrowState maps a local variable to the lent parameter it (may)
// alias.
type borrowState = map[types.Object]string

// newBorrowRetain verifies //lint:lent annotations with alias dataflow
// over the CFG layer: no alias of a lent parameter may escape the call —
// not through a store into a struct field, slice/map element, pointer
// target, or package variable; not through a channel send; and not by
// being captured by (or passed to) a goroutine, which outlives the
// borrow. Returning the value and passing it to ordinary calls are
// treated as further borrows (interprocedural retention is out of
// scope). The annotation documents the contract and this analyzer keeps
// the documentation honest.
func newBorrowRetain() *Analyzer {
	a := &Analyzer{
		Name: "borrowretain",
		Doc:  "parameters annotated //lint:lent must not escape: no field/package-var store, no channel send, no goroutine capture",
	}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.TypesInfo
		if info == nil {
			return
		}
		pass.eachFile(func(f *ast.File) {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				runBorrowFunc(pass, fd)
			}
		})
	}
	return a
}

// lentDirectives parses the //lint:lent lines of a doc comment,
// returning the named parameters with the directive position of each.
func lentDirectives(doc *ast.CommentGroup) map[string]token.Pos {
	if doc == nil {
		return nil
	}
	var out map[string]token.Pos
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, lentPrefix)
		if !ok {
			continue
		}
		if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
			continue // e.g. //lint:lenticular — not ours
		}
		if out == nil {
			out = make(map[string]token.Pos)
		}
		fields := strings.FieldsFunc(rest, func(r rune) bool {
			return r == ' ' || r == '\t' || r == ','
		})
		if len(fields) == 0 {
			out[""] = c.Pos() // grammar error: no parameter named
			continue
		}
		for _, name := range fields {
			out[name] = c.Pos()
		}
	}
	return out
}

func runBorrowFunc(pass *Pass, fd *ast.FuncDecl) {
	named := lentDirectives(fd.Doc)
	if len(named) == 0 {
		return
	}
	info := pass.Pkg.TypesInfo

	// Resolve the named parameters to their objects.
	params := make(map[string]types.Object)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, id := range field.Names {
				if _, want := named[id.Name]; want {
					if obj := info.Defs[id]; obj != nil {
						params[id.Name] = obj
					}
				}
			}
		}
	}
	for name := range named {
		if name == "" {
			pass.report(fd.Name.Pos(), "lint:lent names no parameter (grammar: //lint:lent <param> [<param>...])")
		} else if params[name] == nil {
			pass.report(fd.Name.Pos(), "lint:lent names %s, which is not a parameter of %s", name, fd.Name.Name)
		}
	}
	if len(params) == 0 {
		return
	}

	bf := &borrowFunc{
		pass:     pass,
		info:     info,
		fn:       fd.Name.Name,
		reported: make(map[token.Pos]bool),
	}
	entry := borrowState{}
	for name, obj := range params {
		entry[obj] = name
	}

	g := newCFG(fd.Body)
	d := dataflow[borrowState]{
		Entry:  entry,
		Bottom: func() borrowState { return borrowState{} },
		Clone: func(s borrowState) borrowState {
			c := make(borrowState, len(s))
			for k, v := range s {
				c[k] = v
			}
			return c
		},
		Join: func(dst, src borrowState) bool {
			changed := false
			for k, v := range src {
				if _, ok := dst[k]; !ok {
					dst[k] = v
					changed = true
				}
			}
			return changed
		},
		Transfer: func(b *block, s borrowState) borrowState {
			for _, n := range b.Nodes {
				bf.node(n, s, false)
			}
			return s
		},
	}
	in := forward(g, d)
	for i, b := range g.Blocks {
		s := d.Clone(in[i])
		for _, n := range b.Nodes {
			bf.node(n, s, true)
		}
	}
}

type borrowFunc struct {
	pass     *Pass
	info     *types.Info
	fn       string
	reported map[token.Pos]bool
}

// node applies one flat CFG node: alias propagation plus escape checks.
func (bf *borrowFunc) node(n ast.Node, s borrowState, report bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		bf.assign(n, s, report)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					if i < len(vs.Values) {
						if name := bf.aliasOf(vs.Values[i], s); name != "" {
							if obj := bf.info.Defs[id]; obj != nil {
								s[obj] = name
							}
							continue
						}
					}
					if obj := bf.info.Defs[id]; obj != nil {
						delete(s, obj)
					}
				}
			}
		}
	case *ast.SendStmt:
		if name := bf.aliasOf(n.Value, s); name != "" && report {
			bf.reportOnce(n.Value.Pos(), "lent parameter %s of %s escapes: sent on a channel, so the receiver retains it after the call returns", name, bf.fn)
		}
	case *ast.GoStmt:
		bf.goEscape(n, s, report)
	case *ast.ReturnStmt:
		// Returning a lent value hands it straight back to its owner.
	case rangeHead:
		for _, lhs := range []ast.Expr{n.Stmt.Key, n.Stmt.Value} {
			if lhs == nil {
				continue
			}
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := useObj(bf.info, id); obj != nil {
					delete(s, obj)
				}
			}
		}
	case commOp:
		bf.node(n.Stmt, s, report)
	case *ast.ExprStmt, *ast.DeferStmt, *ast.IncDecStmt,
		selectHead, *ast.BranchStmt:
		// Plain calls (including deferred ones) are further borrows.
	}
}

// assign propagates aliases through ident bindings and reports stores
// through any non-ident left-hand side (field, element, deref) or into a
// package-level variable.
func (bf *borrowFunc) assign(n *ast.AssignStmt, s borrowState, report bool) {
	// Parallel assignments: pair lhs[i] with rhs[i] when arities match.
	paired := len(n.Lhs) == len(n.Rhs)
	for i, lhs := range n.Lhs {
		var rhsName string
		if paired {
			rhsName = bf.aliasOf(n.Rhs[i], s)
		} else if len(n.Rhs) == 1 {
			rhsName = bf.aliasOf(n.Rhs[0], s)
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := useObj(bf.info, l)
			if obj == nil || l.Name == "_" {
				continue
			}
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil &&
				v.Parent() == v.Pkg().Scope() {
				// Package-level variable: the store outlives the call.
				if rhsName != "" && report {
					bf.reportOnce(lhs.Pos(), "lent parameter %s of %s escapes: stored in package variable %s", rhsName, bf.fn, l.Name)
				}
				continue
			}
			if rhsName != "" {
				s[obj] = rhsName
			} else {
				delete(s, obj)
			}
		default:
			if rhsName != "" && report {
				bf.reportOnce(lhs.Pos(), "lent parameter %s of %s escapes: stored into %s, which outlives the call", rhsName, bf.fn, exprDesc(lhs))
			}
		}
	}
}

// goEscape reports lent values handed to a goroutine — as arguments or
// as closure captures — which may still hold them after the call
// returns.
func (bf *borrowFunc) goEscape(n *ast.GoStmt, s borrowState, report bool) {
	if !report {
		return
	}
	for _, arg := range n.Call.Args {
		if name := bf.aliasOf(arg, s); name != "" {
			bf.reportOnce(arg.Pos(), "lent parameter %s of %s escapes: passed to a goroutine that outlives the call", name, bf.fn)
		}
	}
	if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(c ast.Node) bool {
			id, ok := c.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := useObj(bf.info, id); obj != nil {
				if name, tracked := s[obj]; tracked {
					bf.reportOnce(id.Pos(), "lent parameter %s of %s escapes: captured by a goroutine closure", name, bf.fn)
				}
			}
			return true
		})
	}
}

// aliasOf resolves an expression to the lent parameter it aliases:
// identifiers in the state, and slice expressions over them (a subslice
// shares the backing array).
func (bf *borrowFunc) aliasOf(e ast.Expr, s borrowState) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := useObj(bf.info, e); obj != nil {
			return s[obj]
		}
	case *ast.SliceExpr:
		return bf.aliasOf(e.X, s)
	}
	return ""
}

func (bf *borrowFunc) reportOnce(pos token.Pos, format string, args ...any) {
	if bf.reported[pos] {
		return
	}
	bf.reported[pos] = true
	bf.pass.report(pos, format, args...)
}

// exprDesc renders an lvalue for a message, falling back to its shape.
func exprDesc(e ast.Expr) string {
	if t := exprText(e); t != "" {
		return t
	}
	switch ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		return "a slice or map element"
	case *ast.StarExpr:
		return "a pointer target"
	}
	return "a longer-lived location"
}
