package analysis

// dataflow.go is the fixpoint half of the CFG layer (cfg.go): a small
// forward "may" dataflow engine. An analyzer supplies the lattice as
// plain functions — no interface to implement — and gets back the entry
// state of every block at the fixpoint, against which it replays its
// transfer function once more with reporting switched on. Keeping the
// solve and the report as two phases means a block revisited by the
// worklist never reports twice.

// dataflow describes one forward analysis over a CFG. The state type S
// must behave as a join-semilattice under Join, with Bottom as the
// neutral element; Transfer must be monotone (the usual gen/kill shapes
// are) or the worklist may not terminate.
type dataflow[S any] struct {
	// Entry is the state on function entry.
	Entry S
	// Bottom returns the least state (the initial in-state of every
	// non-entry block).
	Bottom func() S
	// Clone returns an independent copy of s (Transfer may mutate its
	// argument).
	Clone func(S) S
	// Join merges src into dst, reporting whether dst changed.
	Join func(dst, src S) bool
	// Transfer applies one block's nodes to s and returns the out-state
	// (mutating s is fine).
	Transfer func(b *block, s S) S
}

// forward iterates the analysis to fixpoint and returns the in-state of
// every block, indexed by Block.Index.
func forward[S any](g *cfg, d dataflow[S]) []S {
	in := make([]S, len(g.Blocks))
	for i := range in {
		in[i] = d.Bottom()
	}
	if len(g.Blocks) > 0 {
		d.Join(in[0], d.Entry)
	}

	// Worklist seeded in block order (creation order approximates
	// reverse postorder closely enough for these small functions).
	queued := make([]bool, len(g.Blocks))
	list := make([]int, 0, len(g.Blocks))
	for i := range g.Blocks {
		list = append(list, i)
		queued[i] = true
	}
	for len(list) > 0 {
		i := list[0]
		list = list[1:]
		queued[i] = false
		b := g.Blocks[i]
		out := d.Transfer(b, d.Clone(in[i]))
		for _, s := range b.Succs {
			if d.Join(in[s.Index], out) && !queued[s.Index] {
				queued[s.Index] = true
				list = append(list, s.Index)
			}
		}
	}
	return in
}
