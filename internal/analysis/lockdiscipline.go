package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// lockAcq is one held lock: how the source spells it plus where it was
// taken (for messages).
type lockAcq struct {
	text string
	pos  token.Pos
}

// lockState is the may-held set at a program point, keyed by lock
// identity (see lockKey).
type lockState = map[string]lockAcq

// lockEdge records "from was held while to was acquired" with the
// acquisition site and enclosing function (first occurrence wins).
type lockEdge struct {
	from, to string
	pos      token.Pos
	fn       string
}

// newLockDiscipline tracks sync.Mutex/RWMutex critical sections with a
// held-set dataflow over the CFG layer and reports, per function:
//
//   - re-acquiring a mutex already held on a path reaching the Lock
//     (self-deadlock);
//   - blocking while holding a lock: channel sends/receives, ranging
//     over a channel, a select with no default, sync.WaitGroup.Wait,
//     time.Sleep, a modelled-time wait (internal/timing), and network
//     calls (internal/grpcish, broker Client methods) — each can stall
//     every other goroutine contending for the lock.
//
// Across the whole module it builds a mutex acquisition-order graph
// (edges "A held while B acquired") and reports order cycles in Finish:
// two goroutines taking {A,B} in opposite orders is the classic
// deadlock. Lock identity is approximate by construction —
// pkg.Type.field for struct-owned mutexes (all instances of a type
// share a key, matching how ordering conventions are written),
// pkg.var for package-level ones, declaration site for locals.
// Deferred Unlocks keep the lock held to function exit, which is the
// semantic truth, so critical sections that defer their Unlock get the
// blocking-op checks for their whole tail.
func newLockDiscipline() *Analyzer {
	a := &Analyzer{
		Name: "lockdiscipline",
		Doc:  "no relock of a held mutex, no blocking ops under a lock, and a module-wide cycle-free mutex acquisition order",
	}
	edges := make(map[[2]string]lockEdge)
	a.Run = func(pass *Pass) {
		info := pass.Pkg.TypesInfo
		if info == nil {
			return
		}
		pass.eachFile(func(f *ast.File) {
			funcBodies(f, func(decl ast.Node, body *ast.BlockStmt) {
				fn := "a function literal"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn = fd.Name.Name
				}
				runLockFunc(pass, fn, body, edges)
			})
		})
	}
	a.Finish = func(pass *Pass) {
		reportLockCycles(pass, edges)
	}
	return a
}

type lockFunc struct {
	pass     *Pass
	info     *types.Info
	fn       string
	edges    map[[2]string]lockEdge
	reported map[token.Pos]bool
}

func runLockFunc(pass *Pass, fn string, body *ast.BlockStmt, edges map[[2]string]lockEdge) {
	// Pre-scan: skip lock-free functions (most of the module).
	usesLocks := false
	inspectShallow(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if m, _ := syncLockMethod(pass.Pkg.TypesInfo, call); m != "" {
				usesLocks = true
			}
		}
		return !usesLocks
	})
	if !usesLocks {
		return
	}

	lf := &lockFunc{
		pass:     pass,
		info:     pass.Pkg.TypesInfo,
		fn:       fn,
		edges:    edges,
		reported: make(map[token.Pos]bool),
	}
	g := newCFG(body)
	d := dataflow[lockState]{
		Entry:  lockState{},
		Bottom: func() lockState { return lockState{} },
		Clone: func(s lockState) lockState {
			c := make(lockState, len(s))
			for k, v := range s {
				c[k] = v
			}
			return c
		},
		Join: func(dst, src lockState) bool {
			changed := false
			for k, v := range src {
				if _, ok := dst[k]; !ok {
					dst[k] = v
					changed = true
				}
			}
			return changed
		},
		Transfer: func(b *block, s lockState) lockState {
			for _, n := range b.Nodes {
				lf.node(n, s, false)
			}
			return s
		},
	}
	in := forward(g, d)
	for i, b := range g.Blocks {
		s := d.Clone(in[i])
		for _, n := range b.Nodes {
			lf.node(n, s, true)
		}
	}
}

// node applies one flat CFG node to the held set.
func (lf *lockFunc) node(n ast.Node, s lockState, report bool) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		// A deferred Unlock releases at exit, not here: leave the set
		// unchanged, which is exactly the held-to-end semantics. Other
		// deferred calls do not run at this point either.
	case *ast.GoStmt:
		// The goroutine does not inherit the caller's critical section;
		// its body is analyzed as its own function.
	case selectHead:
		if !n.HasDefault && len(s) > 0 && report {
			lf.reportOnce(n.Stmt.Pos(), "select with no default while holding %s: blocking under a lock stalls every contender", heldList(s))
		}
	case commOp:
		// The select head already accounted for blocking; the chosen
		// comm op itself is ready by definition. Locks taken inside a
		// comm clause body appear as ordinary nodes.
	case rangeHead:
		if len(s) > 0 && report && isChanType(lf.info, n.Stmt.X) {
			lf.reportOnce(n.Stmt.Pos(), "ranging over a channel while holding %s: each iteration may block under the lock", heldList(s))
		}
		lf.scan(n.Stmt.X, s, report)
	case *ast.BranchStmt:
	case ast.Node:
		lf.scan(n, s, report)
	}
}

// scan walks one flat statement or expression in source order, applying
// lock transfers and blocking-op checks.
func (lf *lockFunc) scan(root ast.Node, s lockState, report bool) {
	inspectShallow(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if method, recv := syncLockMethod(lf.info, n); method != "" {
				lf.lockOp(method, recv, n, s, report)
				return false
			}
			if report && len(s) > 0 {
				if what := blockingCallee(lf.info, n); what != "" {
					lf.reportOnce(n.Pos(), "%s while holding %s: the lock is held across a potentially unbounded wait", what, heldList(s))
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(s) > 0 && report {
				lf.reportOnce(n.Pos(), "channel receive while holding %s: move the receive outside the critical section", heldList(s))
			}
		case *ast.SendStmt:
			if len(s) > 0 && report {
				lf.reportOnce(n.Arrow, "channel send while holding %s: move the send outside the critical section", heldList(s))
			}
		}
		return true
	})
}

// lockOp applies one Lock/RLock/Unlock/RUnlock call.
func (lf *lockFunc) lockOp(method string, recv ast.Expr, call *ast.CallExpr, s lockState, report bool) {
	key, text := lockKey(lf.pass, lf.info, recv)
	switch method {
	case "Lock", "RLock":
		if prev, held := s[key]; held && report {
			if method == "Lock" && prev.text == text {
				lf.reportOnce(call.Pos(), "mutex %s may already be held on a path reaching this Lock: relocking a held sync mutex deadlocks", text)
			}
		}
		if report {
			for from := range s {
				if from == key {
					continue
				}
				e := [2]string{from, key}
				if _, ok := lf.edges[e]; !ok {
					lf.edges[e] = lockEdge{from: from, to: key, pos: call.Pos(), fn: lf.fn}
				}
			}
		}
		s[key] = lockAcq{text: text, pos: call.Pos()}
	case "Unlock", "RUnlock":
		delete(s, key)
	}
}

func (lf *lockFunc) reportOnce(pos token.Pos, format string, args ...any) {
	if lf.reported[pos] {
		return
	}
	lf.reported[pos] = true
	lf.pass.report(pos, format, args...)
}

// heldList renders the held set for messages, deterministically.
func heldList(s lockState) string {
	texts := make([]string, 0, len(s))
	for _, acq := range s {
		texts = append(texts, acq.text)
	}
	sort.Strings(texts)
	return strings.Join(texts, ", ")
}

// syncLockMethod matches calls to sync.Mutex/RWMutex Lock/RLock/Unlock/
// RUnlock (directly or through an embedded field) and returns the method
// name and the receiver expression.
func syncLockMethod(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", nil
	}
	fn, ok := useObj(info, sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil
	}
	return sel.Sel.Name, sel.X
}

// lockKey derives a stable identity for the mutex behind recv:
//
//	pkgpath.Type.field  for struct-owned mutexes (s.mu, s.Lock() through
//	                    an embedded mutex — all instances share the key)
//	pkgpath.var         for package-level mutexes
//	file:line.name      for locally declared mutexes
//
// The second return is the spelled form for messages.
func lockKey(pass *Pass, info *types.Info, recv ast.Expr) (string, string) {
	recv = ast.Unparen(recv)
	text := exprText(recv)
	if text == "" {
		text = "(mutex)"
	}
	switch x := recv.(type) {
	case *ast.SelectorExpr:
		// pkgname.Var: a package-level mutex in another package.
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if pn, ok := useObj(info, id).(*types.PkgName); ok {
				return pn.Imported().Path() + "." + x.Sel.Name, text
			}
		}
		// s.mu (or deeper): key on the owner's named type.
		if tv, ok := info.Types[x.X]; ok && tv.Type != nil {
			if named := namedOf(tv.Type); named != nil && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name, text
			}
		}
	case *ast.Ident:
		obj := useObj(info, x)
		if obj == nil {
			return "expr." + text, text
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), text
		}
		// s.Lock() through an embedded mutex: key on the struct type.
		if named := namedOf(obj.Type()); named != nil && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() != "sync" {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + ".(embedded)", text
		}
		// A genuinely local mutex: its declaration site is its identity.
		pos := pass.Module.Fset.Position(obj.Pos())
		return fmt.Sprintf("%s:%d.%s", filepath.Base(pos.Filename), pos.Line, obj.Name()), text
	}
	return "expr." + text, text
}

// isChanType reports whether e has channel type.
func isChanType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// blockingCallee classifies calls that can block indefinitely: waiting
// on a WaitGroup, sleeping (raw or modelled), and network calls through
// the module's TCP substrate (internal/grpcish) or an exported method of
// a broker client (the TCP and cluster clients and the interfaces
// consumers call them through). sync.Cond.Wait is excluded: it releases
// its locker while waiting.
func blockingCallee(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path := fn.Pkg().Path()
	switch {
	case path == "sync" && fn.Name() == "Wait" && recvTypeName(fn) == "WaitGroup":
		return "sync.WaitGroup.Wait"
	case path == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	case pkgPathHasSuffix(path, "internal/timing"):
		return "a modelled-time wait (timing." + fn.Name() + ")"
	case pkgPathHasSuffix(path, "internal/grpcish"):
		return "a grpcish network call (" + fn.Name() + ")"
	case pkgPathHasSuffix(path, "internal/broker") && fn.Exported() &&
		slices.Contains([]string{"RemoteClient", "ClusterClient", "Transport", "MultiFetcherInto"}, recvTypeName(fn)):
		return "a broker client call (" + fn.Name() + ")"
	}
	return ""
}

// recvTypeName returns the name of a method's receiver type, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if named := namedOf(sig.Recv().Type()); named != nil {
		return named.Obj().Name()
	}
	return ""
}

// reportLockCycles finds strongly connected components in the
// acquisition-order graph and reports each cycle once, anchored at one
// of its acquisition sites.
func reportLockCycles(pass *Pass, edges map[[2]string]lockEdge) {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for pair := range edges {
		adj[pair[0]] = append(adj[pair[0]], pair[1])
		nodes[pair[0]], nodes[pair[1]] = true, true
	}
	order := make([]string, 0, len(nodes))
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)
	for n := range adj {
		sort.Strings(adj[n])
	}

	// Tarjan's SCC, iterative enough for linter-sized graphs.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, n := range order {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}

	for _, scc := range sccs {
		sort.Strings(scc)
		in := make(map[string]bool, len(scc))
		for _, k := range scc {
			in[k] = true
		}
		// Collect the edges internal to the cycle, sorted for
		// deterministic anchoring and description.
		var internal []lockEdge
		for pair, e := range edges {
			if in[pair[0]] && in[pair[1]] {
				internal = append(internal, e)
			}
		}
		sort.Slice(internal, func(i, j int) bool {
			if internal[i].from != internal[j].from {
				return internal[i].from < internal[j].from
			}
			return internal[i].to < internal[j].to
		})
		var parts []string
		for _, e := range internal {
			parts = append(parts, fmt.Sprintf("%s acquires %s while holding %s", e.fn, shortLockKey(e.to), shortLockKey(e.from)))
		}
		pass.report(internal[0].pos,
			"mutex acquisition-order cycle between %s (%s): opposite nesting orders can deadlock; pick one global order",
			shortKeyList(scc), strings.Join(parts, "; "))
	}
}

// shortLockKey trims the module-path prefix off a lock key for messages.
func shortLockKey(key string) string {
	if i := strings.Index(key, "internal/"); i > 0 {
		return key[i:]
	}
	return key
}

func shortKeyList(keys []string) string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = shortLockKey(k)
	}
	return strings.Join(out, " and ")
}
