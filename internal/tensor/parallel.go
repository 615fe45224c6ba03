package tensor

import (
	"fmt"
	"sync"
)

// MatMulParallelInto computes dst = a × b into an already-shaped dst
// without allocating: row ranges are fanned out to the pool's resident
// workers while the caller computes the first chunk itself. done must
// be an idle caller-owned WaitGroup (keep one per execution state so
// the hot path never allocates); it is idle again on return. A nil
// pool or workers <= 1 runs everything on the calling goroutine. Row
// partitioning keeps the result bit-identical to MatMul at any worker
// count. Panics on shape mismatch
// (plan-compile-validated hot kernel).
func MatMulParallelInto(dst, a, b *Tensor, workers int, pool *WorkPool, done *sync.WaitGroup) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulParallelInto requires rank-2 operands, got %v × %v -> %v", a.shape, b.shape, dst.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	if a.shape[1] != b.shape[0] || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulParallelInto shape mismatch %v × %v -> %v", a.shape, b.shape, dst.shape))
	}
	poolMatMul(dst.data, a.data, b.data, m, k, n, workers, pool, done)
}

// Conv2DPoolInto is Conv2DInto with the per-image GEMM fanned out over
// the pool's resident workers; bit-identical to Conv2DInto at any
// worker count. done follows the MatMulParallelInto contract.
func Conv2DPoolInto(dst, in, kernel *Tensor, stride, pad int, col []float32, workers int, pool *WorkPool, done *sync.WaitGroup) {
	conv2DInto(dst, in, kernel, stride, pad, col, func(cd, ad, bd []float32, m, k, n int) {
		poolMatMul(cd, ad, bd, m, k, n, workers, pool, done)
	})
}
