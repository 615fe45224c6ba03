package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Arena buffer lifecycle states (a bitset: a value can be live on one
// path and recycled on another after a join).
const (
	arenaLive uint8 = 1 << iota // obtained from Get, not yet recycled
	arenaRec                    // returned via Recycle (or invalidated by Reset)
)

// arenaState maps a local variable (its types.Object) holding an
// Arena.Get result to its lifecycle bits.
type arenaState = map[types.Object]uint8

// newArenaDiscipline enforces the tensor.Arena ownership contract
// (docs/PERFORMANCE.md) with path-sensitive dataflow over the CFG layer:
//
//   - a buffer must not be used after Recycle on any path reaching the
//     use (including "recycled on one branch, used after the join");
//   - a buffer must not be recycled twice;
//   - a function that recycles a buffer on some path must recycle it (or
//     transfer ownership) on every path that returns — an early return
//     that skips the Recycle leaks the buffer out of the free lists.
//
// Ownership transfer is conservative and syntactic: returning the
// buffer, storing it into a field/element/package var, sending it on a
// channel, capturing it in a closure, or passing it to any function
// outside the tensor package (tensor kernels and Tensor methods only
// borrow) all end tracking. Functions using the Reset-at-end pattern
// (buffers stay lent until an Arena.Reset, possibly deferred or in the
// caller) are exempt from the leak check by construction: it only fires
// for buffers the function explicitly recycles somewhere.
func newArenaDiscipline() *Analyzer {
	a := &Analyzer{
		Name: "arenadiscipline",
		Doc:  "tensor.Arena buffers: no use after Recycle, no double Recycle, no path-dependent leaks of explicitly recycled buffers",
	}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.TypesInfo
		if info == nil {
			return
		}
		pass.eachFile(func(f *ast.File) {
			funcBodies(f, func(decl ast.Node, body *ast.BlockStmt) {
				runArenaFunc(pass, body)
			})
		})
	}
	return a
}

// arenaFunc is one function's analysis context.
type arenaFunc struct {
	pass *Pass
	info *types.Info
	// recycledSomewhere holds objects passed to Recycle anywhere in the
	// body — the leak check's scope.
	recycledSomewhere map[types.Object]bool
	// deferredCleanup: the body defers an Arena Reset/Recycle, so lent
	// buffers are reclaimed on every return path by construction.
	deferredCleanup bool
	// reported dedups (pos, message-kind) pairs.
	reported map[token.Pos]bool
}

func runArenaFunc(pass *Pass, body *ast.BlockStmt) {
	af := &arenaFunc{
		pass:              pass,
		info:              pass.Pkg.TypesInfo,
		recycledSomewhere: make(map[types.Object]bool),
		reported:          make(map[token.Pos]bool),
	}

	// Pre-scan: does this function Get at all? Which objects does it
	// Recycle? Any deferred cleanup?
	usesArena := false
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch arenaMethodOf(af.info, n) {
			case "Get":
				usesArena = true
			case "Recycle":
				if len(n.Args) == 1 {
					if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
						if obj := useObj(af.info, id); obj != nil {
							af.recycledSomewhere[obj] = true
						}
					}
				}
			}
		case *ast.DeferStmt:
			switch arenaMethodOf(af.info, n.Call) {
			case "Reset", "Recycle":
				af.deferredCleanup = true
			}
		}
		return true
	})
	if !usesArena {
		return
	}

	g := newCFG(body)
	d := dataflow[arenaState]{
		Entry:  arenaState{},
		Bottom: func() arenaState { return arenaState{} },
		Clone: func(s arenaState) arenaState {
			c := make(arenaState, len(s))
			for k, v := range s {
				c[k] = v
			}
			return c
		},
		Join: func(dst, src arenaState) bool {
			changed := false
			for k, v := range src {
				if dst[k]|v != dst[k] {
					dst[k] |= v
					changed = true
				}
			}
			return changed
		},
		Transfer: func(b *block, s arenaState) arenaState {
			for _, n := range b.Nodes {
				af.node(n, s, false)
			}
			return s
		},
	}
	in := forward(g, d)
	for i, b := range g.Blocks {
		s := d.Clone(in[i])
		for _, n := range b.Nodes {
			af.node(n, s, true)
		}
		// Paths that fall off the end of a void function also "return".
		if last := lastNode(b); b != g.Exit && succOf(b, g.Exit) {
			if _, isRet := last.(*ast.ReturnStmt); !isRet {
				af.leakCheck(s, body.Rbrace, true)
			}
		}
	}
}

func lastNode(b *block) ast.Node {
	if len(b.Nodes) == 0 {
		return nil
	}
	return b.Nodes[len(b.Nodes)-1]
}

func succOf(b *block, target *block) bool {
	for _, s := range b.Succs {
		if s == target {
			return true
		}
	}
	return false
}

// node applies one flat CFG node to the state; when report is set it also
// emits diagnostics (the second, post-fixpoint pass).
func (af *arenaFunc) node(n ast.Node, s arenaState, report bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			af.expr(rhs, s, report)
		}
		af.assign(n, s, report)
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			af.expr(res, s, report)
			// Returning the buffer transfers ownership to the caller.
			if obj := af.trackedIdent(res, s); obj != nil {
				delete(s, obj)
			}
		}
		if report {
			af.leakCheck(s, n.Pos(), false)
		}
	case *ast.SendStmt:
		af.expr(n.Chan, s, report)
		af.expr(n.Value, s, report)
		if obj := af.trackedIdent(n.Value, s); obj != nil {
			delete(s, obj) // escaped through the channel
		}
	case *ast.DeferStmt:
		// Deferred calls run at exit; argument *evaluation* happens here.
		for _, arg := range n.Call.Args {
			af.expr(arg, s, report)
		}
		// A deferred Recycle/Reset covers every return (deferredCleanup);
		// other deferred calls taking the buffer transfer ownership.
		if arenaMethodOf(af.info, n.Call) == "" {
			for _, arg := range n.Call.Args {
				if obj := af.trackedIdent(arg, s); obj != nil {
					delete(s, obj)
				}
			}
		}
	case *ast.GoStmt:
		af.expr(n.Call, s, report)
	case *ast.ExprStmt:
		af.expr(n.X, s, report)
	case *ast.IncDecStmt:
		af.expr(n.X, s, report)
	case rangeHead:
		af.expr(n.Stmt.X, s, report)
		for _, lhs := range []ast.Expr{n.Stmt.Key, n.Stmt.Value} {
			if lhs == nil {
				continue
			}
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := useObj(af.info, id); obj != nil {
					delete(s, obj) // fresh value each iteration
				}
			}
		}
	case commOp:
		switch c := n.Stmt.(type) {
		case *ast.SendStmt:
			af.node(c, s, report)
		case *ast.AssignStmt:
			af.node(c, s, report)
		case *ast.ExprStmt:
			af.expr(c.X, s, report)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					af.expr(v, s, report)
				}
				if len(vs.Values) == 1 && len(vs.Names) == 1 {
					if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok &&
						arenaMethodOf(af.info, call) == "Get" {
						if obj := af.info.Defs[vs.Names[0]]; obj != nil {
							s[obj] = arenaLive
						}
					}
				}
			}
		}
	case selectHead, *ast.BranchStmt:
		// No arena semantics.
	case ast.Expr:
		af.expr(n, s, report)
	}
}

// assign applies an assignment's left-hand effects after its right-hand
// uses were processed.
func (af *arenaFunc) assign(n *ast.AssignStmt, s arenaState, report bool) {
	// Single-value forms can bind a Get result or create an alias.
	var getCall bool
	var aliasOf types.Object
	if len(n.Rhs) == 1 && len(n.Lhs) == 1 {
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			getCall = arenaMethodOf(af.info, call) == "Get"
		}
		aliasOf = af.trackedIdent(n.Rhs[0], s)
	}
	for _, lhs := range n.Lhs {
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := useObj(af.info, l)
			if obj == nil || l.Name == "_" {
				continue
			}
			switch {
			case getCall:
				s[obj] = arenaLive
			case aliasOf != nil:
				s[obj] = s[aliasOf] // alias shares the fact (approximate)
			default:
				delete(s, obj) // strong update: holds something else now
			}
		default:
			// Store into a field/element/deref: every tracked buffer on
			// the right escapes.
			for _, rhs := range n.Rhs {
				if obj := af.trackedIdent(rhs, s); obj != nil {
					delete(s, obj)
				}
			}
		}
	}
}

// expr walks one expression (not descending into closures), reporting
// uses of recycled buffers and applying call semantics.
func (af *arenaFunc) expr(e ast.Expr, s arenaState, report bool) {
	if e == nil {
		return
	}
	inspectShallow(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			af.call(n, s, report)
			return false // call handled its own arguments
		case *ast.FuncLit:
			// Captured buffers' ownership moves to the closure.
			af.captureEscapes(n, s)
			return false
		case *ast.Ident:
			af.useCheck(n, s, report)
		}
		return true
	})
}

// call applies one call's semantics: arena methods mutate the lattice,
// tensor-package callees borrow, everything else takes ownership.
func (af *arenaFunc) call(call *ast.CallExpr, s arenaState, report bool) {
	// Walk the function expression (selectors can hold buffer uses, e.g.
	// t.Data()(...) shapes) and arguments for recycled-use checks first.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		af.expr(sel.X, s, report)
	}
	method := arenaMethodOf(af.info, call)
	for _, arg := range call.Args {
		if method == "Recycle" {
			break // the Recycle argument is handled below, not a "use"
		}
		af.expr(arg, s, report)
	}

	switch method {
	case "Recycle":
		if len(call.Args) != 1 {
			return
		}
		obj := af.trackedIdent(call.Args[0], s)
		if obj == nil {
			return
		}
		if s[obj]&arenaRec != 0 && report {
			af.reportOnce(call.Pos(), "buffer %s may already be recycled on a path reaching this Recycle (double recycle corrupts the arena free lists)", identName(call.Args[0]))
		}
		s[obj] = arenaRec
	case "Reset":
		// Every outstanding buffer of (any) arena is reclaimed; further
		// use is a bug, further leaks are impossible.
		for obj := range s {
			s[obj] = arenaRec
		}
	case "Get", "Wrap":
		// Binding is handled at the assignment; a dropped result is the
		// caller's own loss.
	default:
		// Non-arena call: tensor-package callees (kernels, Tensor
		// methods) borrow; any other callee takes ownership.
		if calleeBorrowsTensors(af.info, call) {
			return
		}
		for _, arg := range call.Args {
			if obj := af.trackedIdent(arg, s); obj != nil {
				delete(s, obj)
			}
		}
	}
}

// useCheck reports a read of a buffer that may already be recycled.
func (af *arenaFunc) useCheck(id *ast.Ident, s arenaState, report bool) {
	if !report {
		return
	}
	obj := useObj(af.info, id)
	if obj == nil {
		return
	}
	if bits, ok := s[obj]; ok && bits&arenaRec != 0 {
		af.reportOnce(id.Pos(), "buffer %s may be recycled on a path reaching this use (Recycle/Reset ends the lend; docs/PERFORMANCE.md)", id.Name)
	}
}

// captureEscapes ends tracking for buffers referenced inside a closure.
func (af *arenaFunc) captureEscapes(lit *ast.FuncLit, s arenaState) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := useObj(af.info, id); obj != nil {
				delete(s, obj)
			}
		}
		return true
	})
}

// leakCheck fires at returns (and end-of-body falls) for buffers that are
// live here but explicitly recycled on some other path.
func (af *arenaFunc) leakCheck(s arenaState, pos token.Pos, endOfBody bool) {
	if af.deferredCleanup {
		return
	}
	for obj, bits := range s {
		if bits&arenaLive != 0 && bits&arenaRec == 0 && af.recycledSomewhere[obj] {
			where := "this return"
			if endOfBody {
				where = "the end of the function"
			}
			af.reportOnce(pos, "buffer %s is recycled on another path but still live at %s: recycle it or transfer ownership on every path", obj.Name(), where)
		}
	}
}

func (af *arenaFunc) reportOnce(pos token.Pos, format string, args ...any) {
	if af.reported[pos] {
		return
	}
	af.reported[pos] = true
	af.pass.report(pos, format, args...)
}

// trackedIdent resolves e to a tracked buffer's object, or nil.
func (af *arenaFunc) trackedIdent(e ast.Expr, s arenaState) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := useObj(af.info, id)
	if obj == nil {
		return nil
	}
	if _, tracked := s[obj]; !tracked {
		return nil
	}
	return obj
}

func identName(e ast.Expr) string {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// arenaMethodOf returns the method name when call invokes
// tensor.Arena.Get/Wrap/Recycle/Reset, else "".
func arenaMethodOf(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Get", "Wrap", "Recycle", "Reset":
	default:
		return ""
	}
	if info == nil {
		return ""
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return ""
	}
	if !isModuleTypeNamed(tv.Type, "internal/tensor", "Arena") {
		return ""
	}
	return sel.Sel.Name
}

// calleeBorrowsTensors reports whether a call's callee only borrows its
// tensor arguments: functions and methods of the tensor package itself
// (kernels write through, Tensor methods read).
func calleeBorrowsTensors(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return pkgPathHasSuffix(fn.Pkg().Path(), "internal/tensor")
}
