package tensor

import "sync"

// WorkPool is a small resident worker pool for fanning matrix-multiply
// row ranges and fused-attention lane ranges out across goroutines
// without touching the allocator on the hot path: spawning a goroutine
// (and the closure it captures) per call costs the allocator every
// time, so a compiled plan keeps one pool alive for its lifetime and
// feeds it value-typed tasks over a channel instead.
type WorkPool struct {
	tasks chan mmTask
	wg    sync.WaitGroup
	n     int
}

// taskKind discriminates the work a pool task carries: matmul row
// ranges and fused-attention (point, head, query-row) ranges share the
// same resident workers.
type taskKind uint8

const (
	taskMatMul taskKind = iota
	taskAttention
)

// mmTask is one row range of a C = A×B product (taskMatMul) or one
// flattened lane range of a fused attention pass (taskAttention, where
// k/n carry the sequence length and model dim and scr is the lane's
// private scratch strip). It is sent by value so enqueueing does not
// allocate; done is owned by the caller and kept across calls (e.g.
// inside a plan's execution state).
type mmTask struct {
	kind       taskKind
	cd, ad, bd []float32
	i0, i1     int
	k, n       int
	heads      int
	scr        []float32
	done       *sync.WaitGroup
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

// Workers reports the number of resident workers.
func (p *WorkPool) Workers() int { return p.n }

func (p *WorkPool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		switch t.kind {
		case taskAttention:
			// Every output row is produced whole inside its lane, so
			// chunking never changes bits.
			attentionRows(t.cd, t.ad, t.k, t.n, t.heads, t.i0, t.i1, t.scr)
		default:
			// Each worker zeroes its own disjoint row range before
			// accumulating, so results are bit-identical to the
			// sequential kernel for any chunking.
			rows := t.cd[t.i0*t.n : t.i1*t.n]
			for i := range rows {
				rows[i] = 0
			}
			matMulRange(t.cd, t.ad, t.bd, t.i0, t.i1, t.k, t.n)
		}
		t.done.Done()
	}
}

// Close stops the workers and waits for them to exit. No MatMul work
// may be in flight or issued afterwards.
func (p *WorkPool) Close() {
	close(p.tasks)
	p.wg.Wait()
}

// poolMatMul computes C = A×B over the pool: chunks 1..workers-1 are
// enqueued, chunk 0 runs on the calling goroutine, done joins. Rows
// split evenly, every chunk within ±1 row of the others — ceil chunking
// can hand the first workers oversized chunks and leave the last with
// nothing — and because each row is produced whole by one matMulRange
// call, results are bit-identical to the sequential kernel at any
// worker count.
func poolMatMul(cd, ad, bd []float32, m, k, n, workers int, pool *WorkPool, done *sync.WaitGroup) {
	if pool != nil && workers > pool.n+1 {
		workers = pool.n + 1
	}
	if workers > m {
		workers = m
	}
	if pool == nil || workers <= 1 || m < 2 {
		for i := range cd {
			cd[i] = 0
		}
		matMulRange(cd, ad, bd, 0, m, k, n)
		return
	}
	base, rem := m/workers, m%workers
	head := base
	if rem > 0 {
		head++
	}
	i0 := head
	for w := 1; w < workers; w++ {
		rows := base
		if w < rem {
			rows++
		}
		done.Add(1)
		pool.tasks <- mmTask{cd: cd, ad: ad, bd: bd, i0: i0, i1: i0 + rows, k: k, n: n, done: done}
		i0 += rows
	}
	own := cd[:head*n]
	for i := range own {
		own[i] = 0
	}
	matMulRange(cd, ad, bd, 0, head, k, n)
	done.Wait()
}
