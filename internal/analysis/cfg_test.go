package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src as the body of a single function declaration.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	f, err := parser.ParseFile(token.NewFileSet(), "cfg.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// reach computes the set of blocks reachable from the entry block.
func reach(g *cfg) map[int]bool {
	seen := map[int]bool{}
	var walk func(b *block)
	walk = func(b *block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	if len(g.Blocks) > 0 {
		walk(g.Blocks[0])
	}
	return seen
}

func TestCFGShapes(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // exact dump
	}{
		{
			name: "straightline",
			body: "x := 1\ny := x\n_ = y",
			want: "0: assign assign assign -> 1\n1:\n",
		},
		{
			name: "if-no-else",
			body: "if c {\nf()\n}\ng()",
			want: "0: cond -> 1 2\n1: expr -> 2\n2: expr -> 3\n3:\n",
		},
		{
			name: "if-else-return",
			body: "if c {\nreturn\n} else {\ng()\n}\nh()",
			want: "0: cond -> 1 2\n1: return -> 4\n2: expr -> 3\n3: expr -> 4\n4:\n",
		},
		{
			name: "for-full",
			body: "for i := 0; i < n; i++ {\nf(i)\n}\ng()",
			want: "0: assign -> 1\n1: cond -> 2 4\n2: expr -> 5\n3: incdec -> 1\n4: expr -> 3\n5:\n",
		},
		{
			name: "for-break-continue",
			body: "for {\nif a {\nbreak\n}\nif b {\ncontinue\n}\nf()\n}\ng()",
			want: "0: -> 1\n1: -> 3\n2: expr -> 8\n3: cond -> 4 5\n4: break -> 2\n5: cond -> 6 7\n6: continue -> 1\n7: expr -> 1\n8:\n",
		},
		{
			name: "range",
			body: "for _, v := range xs {\nf(v)\n}\ng()",
			want: "0: -> 1\n1: range -> 2 3\n2: expr -> 4\n3: expr -> 1\n4:\n",
		},
		{
			name: "switch-fallthrough-default",
			body: "switch x {\ncase 1:\nf()\nfallthrough\ncase 2:\ng()\ndefault:\nh()\n}\nq()",
			want: "0: cond -> 2 3 4\n1: expr -> 5\n2: cond expr fallthrough -> 3\n3: cond expr -> 1\n4: expr -> 1\n5:\n",
		},
		{
			name: "switch-no-default",
			body: "switch x {\ncase 1:\nf()\n}\ng()",
			want: "0: cond -> 2 1\n1: expr -> 3\n2: cond expr -> 1\n3:\n",
		},
		{
			name: "typeswitch",
			body: "switch v := x.(type) {\ncase int:\nf(v)\ndefault:\ng()\n}",
			want: "0: assign -> 2 3\n1: -> 4\n2: cond expr -> 1\n3: expr -> 1\n4:\n",
		},
		{
			name: "select-with-default",
			body: "select {\ncase v := <-ch:\nf(v)\ncase ch2 <- x:\ng()\ndefault:\nh()\n}\nq()",
			want: "0: select(default) -> 2 3 4\n1: expr -> 5\n2: comm expr -> 1\n3: comm expr -> 1\n4: expr -> 1\n5:\n",
		},
		{
			name: "select-blocking",
			body: "select {\ncase <-ch:\nf()\n}",
			want: "0: select -> 2\n1: -> 3\n2: comm expr -> 1\n3:\n",
		},
		{
			name: "goto-label",
			body: "i := 0\nloop:\ni++\nif i < 3 {\ngoto loop\n}\nf()",
			want: "0: assign -> 1\n1: incdec cond -> 2 3\n2: goto -> 1\n3: expr -> 4\n4:\n",
		},
		{
			name: "labeled-break",
			body: "outer:\nfor {\nfor {\nbreak outer\n}\n}\nf()",
			want: "0: -> 1\n1: -> 2\n2: -> 4\n3: expr -> 8\n4: -> 5\n5: -> 7\n6: -> 2\n7: break -> 3\n8:\n",
		},
		{
			name: "defer-and-go",
			body: "defer f()\ngo g()\nh()",
			want: "0: defer go expr -> 1\n1:\n",
		},
		{
			name: "dead-code-after-return",
			body: "return\nf()",
			want: "0: return -> 2\n1: expr -> 2\n2:\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newCFG(parseBody(t, tc.body))
			got := g.dump()
			if got != tc.want {
				t.Errorf("cfg mismatch\n got:\n%s want:\n%s", got, tc.want)
			}
		})
	}
}

// TestCFGExitReachable: every function that can return reaches Exit, and
// returns always feed Exit directly.
func TestCFGExitReachable(t *testing.T) {
	bodies := []string{
		"f()",
		"if c {\nreturn\n}\nf()",
		"for {\nif c {\nreturn\n}\n}",
		"switch x {\ncase 1:\nreturn\ndefault:\nf()\n}",
	}
	for _, body := range bodies {
		g := newCFG(parseBody(t, body))
		if !reach(g)[g.Exit.Index] {
			t.Errorf("exit unreachable for body %q\n%s", body, g.dump())
		}
	}
}

// TestCFGInfiniteLoopExit: `for {}` with no break never reaches Exit.
func TestCFGInfiniteLoopExit(t *testing.T) {
	g := newCFG(parseBody(t, "for {\nf()\n}"))
	if reach(g)[g.Exit.Index] {
		t.Errorf("exit should be unreachable through an infinite loop\n%s", g.dump())
	}
}

// TestForwardReachability: the trivial "reached" lattice marks exactly
// the blocks reachable from entry.
func TestForwardReachability(t *testing.T) {
	g := newCFG(parseBody(t, "if c {\nreturn\n}\nf()\nreturn\ng()"))
	type state = map[string]bool
	in := forward(g, dataflow[state]{
		Entry:  state{"r": true},
		Bottom: func() state { return state{} },
		Clone: func(s state) state {
			c := state{}
			for k, v := range s {
				c[k] = v
			}
			return c
		},
		Join: func(dst, src state) bool {
			changed := false
			for k, v := range src {
				if v && !dst[k] {
					dst[k] = true
					changed = true
				}
			}
			return changed
		},
		Transfer: func(b *block, s state) state { return s },
	})
	want := reach(g)
	for i, b := range g.Blocks {
		if in[i]["r"] != want[b.Index] {
			t.Errorf("block %d: dataflow reachable=%v, graph reachable=%v\n%s",
				i, in[i]["r"], want[b.Index], g.dump())
		}
	}
}

// TestForwardLoopFixpoint: facts generated inside a loop propagate to the
// loop head and beyond without livelock.
func TestForwardLoopFixpoint(t *testing.T) {
	g := newCFG(parseBody(t, "for i := 0; i < n; i++ {\nx := f()\n_ = x\n}\ng()"))
	type state = map[string]bool
	gen := func(b *block) bool {
		for _, n := range b.Nodes {
			if a, ok := n.(*ast.AssignStmt); ok && len(a.Lhs) == 1 {
				if id, ok := a.Lhs[0].(*ast.Ident); ok && id.Name == "x" {
					return true
				}
			}
		}
		return false
	}
	in := forward(g, dataflow[state]{
		Entry:  state{},
		Bottom: func() state { return state{} },
		Clone: func(s state) state {
			c := state{}
			for k, v := range s {
				c[k] = v
			}
			return c
		},
		Join: func(dst, src state) bool {
			changed := false
			for k, v := range src {
				if v && !dst[k] {
					dst[k] = true
					changed = true
				}
			}
			return changed
		},
		Transfer: func(b *block, s state) state {
			if gen(b) {
				s["x"] = true
			}
			return s
		},
	})
	// The loop head (block with the condition) must see the fact from
	// the back edge, and so must Exit.
	if !in[g.Exit.Index]["x"] {
		t.Errorf("fact generated in loop did not reach exit\n%s", g.dump())
	}
	headSaw := false
	for i, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(ast.Expr); ok && in[i]["x"] {
				headSaw = true
			}
		}
		_ = b
	}
	if !headSaw {
		t.Errorf("no conditioned block saw the loop fact\n%s", g.dump())
	}
}

// dump renders the CFG compactly for tests: one line per block,
// "i: [node kinds] -> succ indexes".
func (g *cfg) dump() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "%d:", blk.Index)
		for _, n := range blk.Nodes {
			fmt.Fprintf(&sb, " %s", nodeKind(n))
		}
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " %d", s.Index)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func nodeKind(n ast.Node) string {
	switch n := n.(type) {
	case rangeHead:
		return "range"
	case selectHead:
		if n.HasDefault {
			return "select(default)"
		}
		return "select"
	case commOp:
		return "comm"
	case *ast.AssignStmt:
		return "assign"
	case *ast.ExprStmt:
		return "expr"
	case *ast.ReturnStmt:
		return "return"
	case *ast.SendStmt:
		return "send"
	case *ast.DeferStmt:
		return "defer"
	case *ast.GoStmt:
		return "go"
	case *ast.BranchStmt:
		return strings.ToLower(n.Tok.String())
	case *ast.DeclStmt:
		return "decl"
	case *ast.IncDecStmt:
		return "incdec"
	case ast.Expr:
		return "cond"
	default:
		return fmt.Sprintf("%T", n)
	}
}
