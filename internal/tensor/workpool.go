package tensor

import (
	"fmt"
	"sync"
)

// WorkPool is a small resident worker pool for fanning matrix-multiply
// row ranges and fused-attention lane ranges out across goroutines
// without touching the allocator on the hot path: spawning a goroutine
// (and the closure it captures) per call costs the allocator every
// time, so a compiled plan keeps one pool alive for its lifetime and
// feeds it value-typed tasks over a channel instead. Every float kernel
// that fans out has one body, with the worker count and the pool as
// parameters: fanOut splits the rows, and a nil pool runs them all on
// the caller.
type WorkPool struct {
	tasks chan mmTask
	wg    sync.WaitGroup
	n     int
}

// mmTask is one row range [i0, i1): rows of a C = A×B product
// (heads == 0), or of a fused attention pass's flattened (point, head,
// query-row) space (heads > 0, where k/n carry the sequence length and
// model dim and scr is the chunk's private lane strip). It is sent by
// value so enqueueing does not allocate; done is owned by the caller
// and kept across calls (e.g. inside a plan's execution state).
type mmTask struct {
	cd, ad, bd []float32
	i0, i1     int
	k, n       int
	heads      int
	scr        []float32
	done       *sync.WaitGroup
}

// run computes the task's rows, on a worker or on the caller. Every
// output row is produced whole by one call — a GEMM row zeroed and
// accumulated in ascending k, an attention row inside its lane — so
// the result is bit-identical at any chunking.
func (t *mmTask) run() {
	if t.heads > 0 {
		attentionRows(t.cd, t.ad, t.k, t.n, t.heads, t.i0, t.i1, t.scr)
		return
	}
	clear(t.cd[t.i0*t.n : t.i1*t.n])
	matMulRange(t.cd, t.ad, t.bd, t.i0, t.i1, t.k, t.n)
}

// NewWorkPool starts n resident workers (minimum 1). Close must be
// called to release them.
func NewWorkPool(n int) *WorkPool {
	if n < 1 {
		n = 1
	}
	p := &WorkPool{tasks: make(chan mmTask, n), n: n}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *WorkPool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		t.run()
		t.done.Done()
	}
}

// Close stops the workers and waits for them to exit. No MatMul work
// may be in flight or issued afterwards.
func (p *WorkPool) Close() {
	close(p.tasks)
	p.wg.Wait()
}

// fanOut runs t over rows [0, rows). The rows split into at most
// workers chunks (capped by the pool's workers plus the caller, and by
// rows) that differ by at most one row — ceil chunking can hand the
// first workers oversized chunks and leave the last with nothing.
// Chunks 1 and up are queued to the pool, chunk 0 runs on the caller,
// and t.done joins; a nil pool runs every row on the caller, and
// t.done may then be nil. With lane > 0 each chunk gets its own
// lane-float strip of t.scr, which must hold one per chunk.
func fanOut(pool *WorkPool, t mmTask, rows, workers, lane int) {
	workers = max(1, min(workers, rows, pool.size()))
	if lane > 0 && len(t.scr) < workers*lane {
		panic(fmt.Sprintf("tensor: scratch %d < %d lanes of %d", len(t.scr), workers, lane))
	}
	base, rem := rows/workers, rows%workers
	for w := workers - 1; w >= 0; w-- {
		c := t
		c.i0, c.i1 = w*base+min(w, rem), (w+1)*base+min(w+1, rem)
		if lane > 0 {
			c.scr = t.scr[w*lane : (w+1)*lane]
		}
		if w == 0 {
			c.run()
		} else {
			t.done.Add(1)
			pool.tasks <- c
		}
	}
	if workers > 1 {
		t.done.Wait()
	}
}

// size is how many goroutines the pool runs a fan-out on: its workers
// plus the caller; 1 for a nil pool.
func (p *WorkPool) size() int {
	if p == nil {
		return 1
	}
	return p.n + 1
}
