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
	free  freeList[*Tensor] // recycled, cap(data) == 1<<class
	lent  []*Tensor         // handed out since last Reset (nil = recycled early)
	wraps []*Tensor         // Wrap headers; wraps[:nwrap] are in use
	nwrap int

	// Quantized scratch uses the same size classes but a stricter
	// contract: GetQ/GetAcc/GetU64 buffers are op-local and must be
	// returned with their Recycle* counterpart (Reset does not sweep
	// them), which keeps the quantized path off the lent list entirely.
	freeQ   freeList[*QTensor] // recycled, cap(data) == 1<<class
	freeAcc freeList[[]int32]  // int32 accumulators, cap == 1<<class
	freeU64 freeList[[]uint64] // packed-word scratch, cap == 1<<class

	hits, misses       atomic.Uint64
	extHits, extMisses *atomic.Uint64
}

// freeList holds one kind of recycled buffer by size class: class c
// holds buffers of capacity 1<<c, at most arenaFreeCap of them.
type freeList[T any] [arenaClasses][]T

// push pins b in class c; it reports false, keeping nothing, when the
// class is full.
func (f *freeList[T]) push(c int, b T) bool {
	if len(f[c]) >= arenaFreeCap {
		return false
	}
	f[c] = append(f[c], b)
	return true
}

// take removes entry i of class c, moving the last entry into its place.
func (f *freeList[T]) take(c, i int) T {
	fl := f[c]
	b := fl[i]
	fl[i] = fl[len(fl)-1]
	f[c] = fl[:len(fl)-1]
	return b
}

// pop removes the most recently pushed buffer of class c, if any.
func (f *freeList[T]) pop(c int) (b T, ok bool) {
	if len(f[c]) == 0 {
		return b, false
	}
	return f.take(c, len(f[c])-1), true
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

// classOf returns the size class of a buffer of capacity n, or -1 for a
// buffer the arena does not manage: off-scale, or a capacity that is
// not a power of two (a foreign buffer).
func classOf(n int) int {
	if c := classFor(n); c < arenaClasses && n == 1<<c {
		return c
	}
	return -1
}

// volume returns the element count of a shape.
func volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
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

// reuseShape returns shape copied into dst's storage when its capacity
// allows, so a recycled header takes a new shape without allocating
// (a rank that grew, which class reuse almost never meets, allocates).
func reuseShape(dst, shape []int) []int {
	if cap(dst) < len(shape) {
		return append([]int(nil), shape...)
	}
	dst = dst[:len(shape)]
	copy(dst, shape)
	return dst
}

// Get returns a tensor of the given shape with unspecified contents.
// Steady state (every shape seen since the last miss) is allocation-
// free: exact-shape headers are reused whole, and same-class buffers
// are resliced in place.
func (a *Arena) Get(shape ...int) *Tensor {
	n := volume(shape)
	c := classFor(n)
	if c >= arenaClasses {
		// Off-scale request: plain allocation, never recycled.
		a.miss()
		t := New(shape...)
		a.lent = append(a.lent, t)
		return t
	}
	var t *Tensor
	for i := len(a.free[c]) - 1; i >= 0 && t == nil; i-- {
		if shapeEq(a.free[c][i].shape, shape) {
			t = a.free.take(c, i)
		}
	}
	if t == nil {
		t, _ = a.free.pop(c)
	}
	if t == nil {
		t, _ = sharedBufs[c].Get().(*Tensor)
	}
	if t == nil {
		a.miss()
		t = &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n, 1<<c)}
	} else {
		a.hit()
		t.data, t.shape = t.data[:n], reuseShape(t.shape, shape)
	}
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
	t.data, t.shape = data, reuseShape(t.shape, shape)
	return t
}

// put returns an arena-owned tensor to its class free list, spilling to
// the shared pool when the pinned list is full.
func (a *Arena) put(t *Tensor) {
	if c := classOf(cap(t.data)); c >= 0 && !a.free.push(c, t) {
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

// GetQ returns a quantized tensor of the given shape with unspecified
// contents and identity-reset parameters. Rank-2 tensors come with
// packed-LHS buffers sized for QuantizeLHSInto. Steady state is
// allocation-free: recycled tensors keep their data, shape, and packed
// capacities. Unlike Get, the tensor is not swept by Reset — return it
// with RecycleQ when the op completes.
func (a *Arena) GetQ(shape ...int) *QTensor {
	n := volume(shape)
	c := classFor(n)
	var q *QTensor
	if c < arenaClasses {
		q, _ = a.freeQ.pop(c)
	}
	if q != nil {
		a.hit()
		q.data, q.shape = q.data[:n], reuseShape(q.shape, shape)
	} else {
		// An off-scale request gets an exact buffer, which RecycleQ
		// drops. Built inline (not via newQ) so the variadic shape slice
		// never escapes.
		a.miss()
		size := n
		if c < arenaClasses {
			size = 1 << c
		}
		q = &QTensor{
			shape:  append([]int(nil), shape...),
			data:   make([]int8, n, size),
			scales: []float32{1},
			zps:    []int32{0},
			axis:   -1,
		}
	}
	if len(shape) == 2 {
		q.ensureLHS(shape[0], shape[1])
	}
	return q
}

// RecycleQ returns a GetQ-ed tensor to the quantized free lists.
// Foreign buffers (capacity not a managed class) are dropped, as is
// scratch whose class list is full.
func (a *Arena) RecycleQ(q *QTensor) {
	if q == nil {
		return
	}
	if c := classOf(cap(q.data)); c >= 0 {
		a.freeQ.push(c, q)
	}
}

// GetAcc returns an int32 accumulator of length n with unspecified
// contents. Return it with RecycleAcc; steady state is allocation-free.
func (a *Arena) GetAcc(n int) []int32 { return getSlice(a, &a.freeAcc, n) }

// RecycleAcc returns a GetAcc-ed buffer to the free lists.
func (a *Arena) RecycleAcc(b []int32) { recycleSlice(&a.freeAcc, b) }

// GetU64 returns a packed-word scratch buffer of length n with
// unspecified contents (the fused quantized im2col's destination).
// Return it with RecycleU64; steady state is allocation-free.
func (a *Arena) GetU64(n int) []uint64 { return getSlice(a, &a.freeU64, n) }

// RecycleU64 returns a GetU64-ed buffer to the free lists.
func (a *Arena) RecycleU64(b []uint64) { recycleSlice(&a.freeU64, b) }

// getSlice returns a length-n buffer from f, or a new one of its class
// capacity (exact length when off-scale, never recycled).
func getSlice[E any](a *Arena, f *freeList[[]E], n int) []E {
	c := classFor(n)
	if c >= arenaClasses {
		a.miss()
		return make([]E, n)
	}
	if b, ok := f.pop(c); ok {
		a.hit()
		return b[:n]
	}
	a.miss()
	return make([]E, n, 1<<c)
}

// recycleSlice returns a getSlice-ed buffer to f; foreign and off-scale
// buffers, and any beyond a full class, are dropped.
func recycleSlice[E any](f *freeList[[]E], b []E) {
	if c := classOf(cap(b)); c >= 0 {
		f.push(c, b)
	}
}
