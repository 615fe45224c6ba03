package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// arenaClasses bounds the power-of-two size classes an Arena manages:
// class c holds buffers of capacity 1<<c floats. 1<<27 floats (512 MiB)
// is far beyond any layer in the model zoo; larger requests fall back to
// exact, unrecycled allocations.
const arenaClasses = 28

// arenaFreeCap bounds how many recycled tensors an arena pins per size
// class; overflow goes to the shared sync.Pool so burst states still
// return memory to the rest of the process.
const arenaFreeCap = 64

// sharedBufs recycles tensors across arenas, one pool per size class.
// The GC may empty it at any time, so it is only the overflow tier —
// each arena pins its own free lists for the steady state.
var sharedBufs [arenaClasses]sync.Pool

// Arena hands out float32 tensors from size-classed free lists so a
// steady-state forward pass never touches the allocator. It is
// single-owner: one goroutine uses an arena at a time (plans keep one
// per execution state), only the hit/miss counters are safe to read
// concurrently.
//
// The contract: Get returns a tensor whose contents are unspecified
// (kernels with an Into variant fully overwrite their destination);
// every Get-ed tensor stays valid until Reset, which reclaims them all
// at once; Recycle returns one early (the ping-pong pattern). Wrap
// headers view caller-owned data and are recycled separately, so caller
// memory never enters the buffer free lists.
type Arena struct {
	free  [arenaClasses][]*Tensor // recycled, cap(data) == 1<<class
	lent  []*Tensor               // handed out since last Reset (nil = recycled early)
	wraps []*Tensor               // Wrap headers; wraps[:nwrap] are in use
	nwrap int

	// Quantized scratch uses the same size classes but a stricter
	// contract: GetQ/GetAcc/GetU64 buffers are op-local and must be
	// returned with their Recycle* counterpart (Reset does not sweep
	// them), which keeps the quantized path off the lent list entirely.
	freeQ   [arenaClasses][]*QTensor // recycled, cap(data) == 1<<class
	freeAcc [arenaClasses][][]int32  // int32 accumulators, cap == 1<<class
	freeU64 [arenaClasses][][]uint64 // packed-word scratch, cap == 1<<class

	hits, misses       atomic.Uint64
	extHits, extMisses *atomic.Uint64
}

// CountInto redirects the arena's hit/miss counters to shared sinks, so
// a plan can aggregate across the per-state arenas it owns (pooled
// states are not enumerable). Call before first use.
func (a *Arena) CountInto(hits, misses *atomic.Uint64) {
	a.extHits, a.extMisses = hits, misses
}

func (a *Arena) hit() {
	if a.extHits != nil {
		a.extHits.Add(1)
		return
	}
	a.hits.Add(1)
}

func (a *Arena) miss() {
	if a.extMisses != nil {
		a.extMisses.Add(1)
		return
	}
	a.misses.Add(1)
}

// classFor returns the size class whose buffers hold n floats.
func classFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, d := range a {
		if b[i] != d {
			return false
		}
	}
	return true
}

// reshapeTo repoints a recycled tensor at a new shape of n total
// elements without allocating (unless the rank grew, which class reuse
// almost never does).
func (t *Tensor) reshapeTo(shape []int, n int) {
	t.data = t.data[:n]
	if cap(t.shape) >= len(shape) {
		t.shape = t.shape[:len(shape)]
		copy(t.shape, shape)
	} else {
		t.shape = append([]int(nil), shape...)
	}
}

// Get returns a tensor of the given shape with unspecified contents.
// Steady state (every shape seen since the last miss) is allocation-
// free: exact-shape headers are reused whole, and same-class buffers
// are resliced in place.
func (a *Arena) Get(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	c := classFor(n)
	if c >= arenaClasses {
		// Off-scale request: plain allocation, never recycled.
		a.miss()
		t := New(shape...)
		a.lent = append(a.lent, t)
		return t
	}
	fl := a.free[c]
	for i := len(fl) - 1; i >= 0; i-- {
		if shapeEq(fl[i].shape, shape) {
			t := fl[i]
			fl[i] = fl[len(fl)-1]
			a.free[c] = fl[:len(fl)-1]
			a.hit()
			a.lent = append(a.lent, t)
			return t
		}
	}
	if len(fl) > 0 {
		t := fl[len(fl)-1]
		a.free[c] = fl[:len(fl)-1]
		t.reshapeTo(shape, n)
		a.hit()
		a.lent = append(a.lent, t)
		return t
	}
	if t, _ := sharedBufs[c].Get().(*Tensor); t != nil {
		t.reshapeTo(shape, n)
		a.hit()
		a.lent = append(a.lent, t)
		return t
	}
	a.miss()
	t := &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n, 1<<c)}
	a.lent = append(a.lent, t)
	return t
}

// Wrap returns a tensor header viewing caller-owned data. The header is
// arena-recycled (valid until Reset) but the data never is: wrapped
// memory stays the caller's.
func (a *Arena) Wrap(data []float32, shape ...int) *Tensor {
	var t *Tensor
	if a.nwrap < len(a.wraps) {
		t = a.wraps[a.nwrap]
	} else {
		t = &Tensor{}
		a.wraps = append(a.wraps, t)
	}
	a.nwrap++
	t.data = data
	if cap(t.shape) >= len(shape) {
		t.shape = t.shape[:len(shape)]
		copy(t.shape, shape)
	} else {
		t.shape = append([]int(nil), shape...)
	}
	return t
}

// put returns an arena-owned tensor to its class free list, spilling to
// the shared pool when the pinned list is full.
func (a *Arena) put(t *Tensor) {
	c := classFor(cap(t.data))
	if c >= arenaClasses || cap(t.data) != 1<<c {
		return // off-scale or foreign buffer: drop
	}
	if len(a.free[c]) < arenaFreeCap {
		a.free[c] = append(a.free[c], t)
	} else {
		sharedBufs[c].Put(t)
	}
}

// Recycle returns one Get-ed tensor to the free lists before Reset —
// the ping-pong pattern where layer N's input is dead once layer N+1
// is computed. Tensors the arena does not own (Wrap headers, foreign
// tensors) are ignored.
func (a *Arena) Recycle(t *Tensor) {
	for i := len(a.lent) - 1; i >= 0; i-- {
		if a.lent[i] == t {
			a.lent[i] = nil
			a.put(t)
			return
		}
	}
}

// Reset reclaims every outstanding Get-ed tensor and releases all Wrap
// headers' views of caller data. Tensors obtained before Reset must not
// be used afterwards.
func (a *Arena) Reset() {
	for i, t := range a.lent {
		if t != nil {
			a.put(t)
		}
		a.lent[i] = nil
	}
	a.lent = a.lent[:0]
	for i := 0; i < a.nwrap; i++ {
		a.wraps[i].data = nil
	}
	a.nwrap = 0
}

// reshapeQTo repoints a recycled QTensor at a new shape of n total
// elements, reusing the shape header when the rank allows.
func (q *QTensor) reshapeQTo(shape []int, n int) {
	q.data = q.data[:n]
	if cap(q.shape) >= len(shape) {
		q.shape = q.shape[:len(shape)]
		copy(q.shape, shape)
	} else {
		q.shape = append([]int(nil), shape...)
	}
}

// GetQ returns a quantized tensor of the given shape with unspecified
// contents and identity-reset parameters. Rank-2 tensors come with
// packed-LHS buffers sized for QuantizeLHSInto. Steady state is
// allocation-free: recycled tensors keep their data, shape, and packed
// capacities. Unlike Get, the tensor is not swept by Reset — return it
// with RecycleQ when the op completes.
func (a *Arena) GetQ(shape ...int) *QTensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	c := classFor(n)
	if c >= arenaClasses {
		// Off-scale request: plain allocation, never recycled. Built
		// inline (not via newQ) so the variadic shape slice never
		// escapes on the in-class path below.
		a.miss()
		q := &QTensor{
			shape:  append([]int(nil), shape...),
			data:   make([]int8, n),
			scales: []float32{1},
			zps:    []int32{0},
			axis:   -1,
		}
		if len(shape) == 2 {
			q.ensureLHS(shape[0], shape[1])
		}
		return q
	}
	if fl := a.freeQ[c]; len(fl) > 0 {
		q := fl[len(fl)-1]
		a.freeQ[c] = fl[:len(fl)-1]
		q.reshapeQTo(shape, n)
		if len(shape) == 2 {
			q.ensureLHS(shape[0], shape[1])
		}
		a.hit()
		return q
	}
	a.miss()
	q := &QTensor{
		shape:  append([]int(nil), shape...),
		data:   make([]int8, n, 1<<c),
		scales: []float32{1},
		zps:    []int32{0},
		axis:   -1,
	}
	if len(shape) == 2 {
		q.ensureLHS(shape[0], shape[1])
	}
	return q
}

// RecycleQ returns a GetQ-ed tensor to the quantized free lists.
// Foreign buffers (capacity not a managed class) are dropped.
func (a *Arena) RecycleQ(q *QTensor) {
	if q == nil {
		return
	}
	c := classFor(cap(q.data))
	if c >= arenaClasses || cap(q.data) != 1<<c {
		return
	}
	if len(a.freeQ[c]) < arenaFreeCap {
		a.freeQ[c] = append(a.freeQ[c], q)
	}
}

// GetAcc returns an int32 accumulator of length n with unspecified
// contents. Return it with RecycleAcc; steady state is allocation-free.
func (a *Arena) GetAcc(n int) []int32 {
	c := classFor(n)
	if c >= arenaClasses {
		a.miss()
		return make([]int32, n)
	}
	if fl := a.freeAcc[c]; len(fl) > 0 {
		b := fl[len(fl)-1]
		a.freeAcc[c] = fl[:len(fl)-1]
		a.hit()
		return b[:n]
	}
	a.miss()
	return make([]int32, n, 1<<c)
}

// RecycleAcc returns a GetAcc-ed buffer to the free lists.
func (a *Arena) RecycleAcc(b []int32) {
	if cap(b) == 0 {
		return
	}
	c := classFor(cap(b))
	if c >= arenaClasses || cap(b) != 1<<c {
		return
	}
	if len(a.freeAcc[c]) < arenaFreeCap {
		a.freeAcc[c] = append(a.freeAcc[c], b)
	}
}

// GetU64 returns a packed-word scratch buffer of length n with
// unspecified contents (the fused quantized im2col's destination).
// Return it with RecycleU64; steady state is allocation-free.
func (a *Arena) GetU64(n int) []uint64 {
	c := classFor(n)
	if c >= arenaClasses {
		a.miss()
		return make([]uint64, n)
	}
	if fl := a.freeU64[c]; len(fl) > 0 {
		b := fl[len(fl)-1]
		a.freeU64[c] = fl[:len(fl)-1]
		a.hit()
		return b[:n]
	}
	a.miss()
	return make([]uint64, n, 1<<c)
}

// RecycleU64 returns a GetU64-ed buffer to the free lists.
func (a *Arena) RecycleU64(b []uint64) {
	if cap(b) == 0 {
		return
	}
	c := classFor(cap(b))
	if c >= arenaClasses || cap(b) != 1<<c {
		return
	}
	if len(a.freeU64[c]) < arenaFreeCap {
		a.freeU64[c] = append(a.freeU64[c], b)
	}
}
