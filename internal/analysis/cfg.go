package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow layer under the dataflow analyzers
// (arenadiscipline, borrowretain, lockdiscipline): an intraprocedural CFG
// over a go/ast function body, built from the standard library only. The
// per-statement analyzers from PR 2 judge each node in isolation; the
// ownership and lock-discipline contracts need "on this path" facts —
// recycled on one branch, still live on the other — which only a CFG plus
// fixpoint iteration (dataflow.go) can express.
//
// Granularity contract: Block.Nodes holds only *flat* nodes — simple
// statements (assignments, calls, sends, returns, defers, declarations)
// and the governing expressions of control statements (an if condition, a
// switch tag). Composite statements never appear as nodes, so a transfer
// function may inspect each node fully without double-visiting nested
// bodies. Three wrapper nodes mark spots where flatness needs context:
//
//   - rangeHead: the evaluation of `range X` in a loop head (the body is
//     in successor blocks). Lets analyzers see range-over-channel as a
//     blocking receive without re-walking the body.
//   - selectHead: a select statement's decision point, carrying whether a
//     default clause exists (a select without default blocks).
//   - commOp: a comm clause's send/receive inside a chosen select case.
//     The op itself already "won" the select, so it is not a fresh
//     blocking point — but it is still an assignment/use/escape.
//
// Defer semantics: a *ast.DeferStmt node appears in the block where it is
// lexically executed (where the deferred call's arguments are evaluated),
// not at function exit. Analyzers decide what deferral means for their
// lattice (lockdiscipline ignores deferred Unlocks — the lock stays held
// to the end; arenadiscipline treats a deferred Reset/Recycle as covering
// every return).
type cfg struct {
	// Blocks in creation order; Blocks[0] is the entry block.
	Blocks []*block
	// Exit is the single synthetic exit block (no Nodes). Every return
	// statement's block and every path falling off the end feed it.
	Exit *block
}

// block is one basic block: straight-line flat nodes, then a transfer of
// control to one of Succs (an empty Succs list other than Exit means the
// block ends in a return or is the exit itself).
type block struct {
	Index int
	Nodes []ast.Node
	Succs []*block
}

// rangeHead marks a range loop's operand evaluation in the loop-head
// block. Stmt.X is the ranged expression; Stmt.Key/Stmt.Value are
// assigned once per iteration.
type rangeHead struct{ Stmt *ast.RangeStmt }

func (r rangeHead) Pos() token.Pos { return r.Stmt.Pos() }
func (r rangeHead) End() token.Pos { return r.Stmt.X.End() }

// selectHead marks a select statement's blocking decision point.
type selectHead struct {
	Stmt       *ast.SelectStmt
	HasDefault bool
}

func (s selectHead) Pos() token.Pos { return s.Stmt.Pos() }
func (s selectHead) End() token.Pos { return s.Stmt.Select + 6 }

// commOp wraps the comm statement of a chosen select case (a send, a
// receive expression, or a receive assignment).
type commOp struct{ Stmt ast.Stmt }

func (c commOp) Pos() token.Pos { return c.Stmt.Pos() }
func (c commOp) End() token.Pos { return c.Stmt.End() }

// newCFG builds the control-flow graph of one function body.
func newCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{g: &cfg{}}
	b.g.Exit = &block{Index: -1}
	entry := b.newBlock()
	b.cur = entry
	b.stmt(body)
	if b.cur != nil {
		b.edge(b.cur, b.g.Exit)
	}
	// Resolve dangling gotos to labels that never appeared (invalid Go,
	// but the loader is lenient): point them at Exit.
	for _, l := range b.labels {
		if l.block == nil {
			for _, src := range l.pendingGotos {
				b.edge(src, b.g.Exit)
			}
		}
	}
	b.g.Exit.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, b.g.Exit)
	return b.g
}

type loopFrame struct {
	label      string
	breakTo    *block
	continueTo *block // nil for switch/select frames (break only)
}

type labelInfo struct {
	block        *block
	pendingGotos []*block
}

type cfgBuilder struct {
	g   *cfg
	cur *block // nil while control is unreachable (after return/branch)

	frames []*loopFrame
	labels map[string]*labelInfo
	// pendingLabel carries a label to attach to the next loop/switch.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *block {
	blk := &block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// ensure returns the current block, materializing a fresh unreachable one
// when control already left (code after return stays analyzable).
func (b *cfgBuilder) ensure() *block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	blk := b.ensure()
	blk.Nodes = append(blk.Nodes, n)
}

// startBlock finishes cur with an edge into a fresh block and makes that
// block current.
func (b *cfgBuilder) startBlock() *block {
	blk := b.newBlock()
	if b.cur != nil {
		b.edge(b.cur, blk)
	}
	b.cur = blk
	return blk
}

func (b *cfgBuilder) label(name string) *labelInfo {
	if b.labels == nil {
		b.labels = make(map[string]*labelInfo)
	}
	l := b.labels[name]
	if l == nil {
		l = &labelInfo{}
		b.labels[name] = l
	}
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		head := b.ensure()
		thenBlk := b.newBlock()
		b.edge(head, thenBlk)
		b.cur = thenBlk
		b.stmt(s.Body)
		thenExit := b.cur

		var elseExit *block
		hasElse := s.Else != nil
		if hasElse {
			elseBlk := b.newBlock()
			b.edge(head, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			elseExit = b.cur
		}

		join := b.newBlock()
		if thenExit != nil {
			b.edge(thenExit, join)
		}
		if hasElse {
			if elseExit != nil {
				b.edge(elseExit, join)
			}
		} else {
			b.edge(head, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.startBlock()
		if s.Cond != nil {
			b.add(s.Cond)
		}
		done := b.newBlock()
		if s.Cond != nil {
			b.edge(head, done)
		}
		frame := &loopFrame{label: b.takeLabel(), breakTo: done}
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		frame.continueTo = post
		b.frames = append(b.frames, frame)
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, post)
		}
		if s.Post != nil {
			b.cur = post
			b.stmt(s.Post)
			if b.cur != nil {
				b.edge(b.cur, head)
			}
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = done

	case *ast.RangeStmt:
		head := b.startBlock()
		b.add(rangeHead{Stmt: s})
		done := b.newBlock()
		b.edge(head, done)
		frame := &loopFrame{label: b.takeLabel(), breakTo: done, continueTo: head}
		b.frames = append(b.frames, frame)
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = done

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(s.Body, nil)

	case *ast.SelectStmt:
		head := b.ensure()
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		b.add(selectHead{Stmt: s, HasDefault: hasDefault})
		done := b.newBlock()
		frame := &loopFrame{label: b.takeLabel(), breakTo: done}
		b.frames = append(b.frames, frame)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.add(commOp{Stmt: cc.Comm})
			}
			for _, st := range cc.Body {
				b.stmt(st)
			}
			if b.cur != nil {
				b.edge(b.cur, done)
			}
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = done

	case *ast.LabeledStmt:
		l := b.label(s.Label.Name)
		blk := b.startBlock()
		l.block = blk
		for _, src := range l.pendingGotos {
			b.edge(src, blk)
		}
		l.pendingGotos = nil
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = s.Label.Name
		}
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.GOTO:
			if s.Label != nil {
				l := b.label(s.Label.Name)
				src := b.ensure()
				if l.block != nil {
					b.edge(src, l.block)
				} else {
					l.pendingGotos = append(l.pendingGotos, src)
				}
			}
			b.cur = nil
		case token.BREAK:
			if f := b.findFrame(s.Label, false); f != nil {
				b.edge(b.ensure(), f.breakTo)
			}
			b.cur = nil
		case token.CONTINUE:
			if f := b.findFrame(s.Label, true); f != nil {
				b.edge(b.ensure(), f.continueTo)
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by switchClauses (edge to the next case body).
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.ensure(), b.g.Exit)
		b.cur = nil

	case nil:
		// Nothing.

	default:
		// Flat statements: assignments, calls, sends, defers, go, decls,
		// inc/dec, empty.
		b.add(s)
	}
}

// switchClauses builds the case blocks of a (type) switch whose head is
// the current block.
func (b *cfgBuilder) switchClauses(body *ast.BlockStmt, _ *block) {
	head := b.ensure()
	done := b.newBlock()
	frame := &loopFrame{label: b.takeLabel(), breakTo: done}
	b.frames = append(b.frames, frame)

	var caseBlocks []*block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauses = append(clauses, cc)
		blk := b.newBlock()
		caseBlocks = append(caseBlocks, blk)
		b.edge(head, blk)
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, done)
	}
	for i, cc := range clauses {
		blk := caseBlocks[i]
		b.cur = blk
		for _, e := range cc.List {
			b.add(e)
		}
		fallsThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(caseBlocks) {
			b.edge(b.ensure(), caseBlocks[i+1])
			b.cur = nil
		}
		if b.cur != nil {
			b.edge(b.cur, done)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

// takeLabel consumes the label pending for the next breakable statement.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findFrame resolves a break/continue target frame. Continue skips
// switch/select frames (which have no continue target).
func (b *cfgBuilder) findFrame(label *ast.Ident, isContinue bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if isContinue && f.continueTo == nil {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}
