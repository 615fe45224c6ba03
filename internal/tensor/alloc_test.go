package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

// assertZeroAllocs runs f under AllocsPerRun and fails unless the
// steady state is allocation-free. Under -race the exact-zero check is
// skipped (the race runtime allocates shadow memory) but f still runs.
func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	allocs := testing.AllocsPerRun(5, f)
	if raceEnabled {
		return
	}
	if allocs != 0 {
		t.Errorf("%s: %v allocs/op in steady state, want 0", name, allocs)
	}
}

// TestIntoKernelsMatchAndDontAllocate checks every Into-variant kernel
// against its allocating counterpart (bit-identical) and asserts the
// Into path is allocation-free.
func TestIntoKernelsMatchAndDontAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(99))

	a := randTensor(r, 7, 13)
	b := randTensor(r, 13, 9)
	want, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dst := New(7, 9)
	assertZeroAllocs(t, "MatMulInto", func() { MatMulInto(dst, a, b) })
	if !bitEqual(dst, want) {
		t.Error("MatMulInto differs from MatMul")
	}

	bias := randTensor(r, 9)
	wantBias := want.Clone()
	if _, err := AddBias(wantBias, bias); err != nil {
		t.Fatal(err)
	}
	assertZeroAllocs(t, "AddBiasInto", func() { AddBiasInto(dst, dst, bias) })
	// dst has accumulated bias repeatedly; redo once cleanly for the value check.
	MatMulInto(dst, a, b)
	AddBiasInto(dst, dst, bias)
	if !bitEqual(dst, wantBias) {
		t.Error("AddBiasInto differs from AddBias")
	}

	sm := randTensor(r, 5, 11)
	wantSm := sm.Clone()
	if _, err := Softmax(wantSm); err != nil {
		t.Fatal(err)
	}
	dstSm := New(5, 11)
	assertZeroAllocs(t, "SoftmaxInto", func() { SoftmaxInto(dstSm, sm) })
	if !bitEqual(dstSm, wantSm) {
		t.Error("SoftmaxInto differs from Softmax")
	}

	in := randTensor(r, 2, 3, 12, 12)
	kern := randTensor(r, 4, 3, 3, 3)
	wantConv, err := Conv2D(in, kern, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	col := make([]float32, Conv2DScratchLen(in, kern, 2, 1))
	oh, ow := Conv2DOutDims(in, kern, 2, 1)
	dstConv := New(2, 4, oh, ow)
	assertZeroAllocs(t, "Conv2DInto", func() { Conv2DInto(dstConv, in, kern, 2, 1, col) })
	if !bitEqual(dstConv, wantConv) {
		t.Error("Conv2DInto differs from Conv2D")
	}

	wantRef, err := Conv2DReference(in, kern, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertZeroAllocs(t, "Conv2DReferenceInto", func() { Conv2DReferenceInto(dstConv, in, kern, 2, 1, col) })
	if !bitEqual(dstConv, wantRef) {
		t.Error("Conv2DReferenceInto differs from Conv2DReference")
	}

	wantPool, err := MaxPool2D(in, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dstPool := New(wantPool.Shape()...)
	assertZeroAllocs(t, "MaxPool2DInto", func() { MaxPool2DInto(dstPool, in, 3, 2, 1) })
	if !bitEqual(dstPool, wantPool) {
		t.Error("MaxPool2DInto differs from MaxPool2D")
	}

	wantAvg, err := GlobalAvgPool2D(in)
	if err != nil {
		t.Fatal(err)
	}
	dstAvg := New(wantAvg.Shape()...)
	assertZeroAllocs(t, "GlobalAvgPool2DInto", func() { GlobalAvgPool2DInto(dstAvg, in) })
	if !bitEqual(dstAvg, wantAvg) {
		t.Error("GlobalAvgPool2DInto differs from GlobalAvgPool2D")
	}
}

// TestWinogradApplyInto checks the fast-kernel Into path against Apply
// and asserts it is allocation-free with caller scratch.
func TestWinogradApplyInto(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	in := randTensor(r, 2, 3, 10, 10)
	kern := randTensor(r, 4, 3, 3, 3)
	wc, err := NewWinogradConv(kern)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wc.Apply(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := wc.NewScratch(10, 10, 1)
	dst := New(want.Shape()...)
	assertZeroAllocs(t, "WinogradConv.ApplyInto", func() { wc.ApplyInto(dst, in, 1, sc) })
	if !bitEqual(dst, want) {
		t.Error("ApplyInto differs from Apply")
	}
}

// TestMatMulParallelInto checks the pooled fan-out kernel: bit-identical
// to the sequential kernel at several worker counts, and allocation-free
// once the pool and join point exist.
func TestMatMulParallelInto(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	a := randTensor(r, 33, 19)
	b := randTensor(r, 19, 23)
	want, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewWorkPool(3)
	defer pool.Close()
	var wg sync.WaitGroup
	dst := New(33, 23)
	for _, workers := range []int{1, 2, 4, 7} {
		dst.Fill(-1)
		MatMulParallelInto(dst, a, b, workers, pool, &wg)
		if !bitEqual(dst, want) {
			t.Errorf("workers=%d: pooled result differs from MatMul", workers)
		}
	}
	assertZeroAllocs(t, "MatMulParallelInto", func() { MatMulParallelInto(dst, a, b, 4, pool, &wg) })

	// The pooled conv path shares the fan-out.
	in := randTensor(r, 1, 3, 9, 9)
	kern := randTensor(r, 5, 3, 3, 3)
	wantConv, err := Conv2D(in, kern, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	col := make([]float32, Conv2DScratchLen(in, kern, 1, 1))
	dstConv := New(wantConv.Shape()...)
	assertZeroAllocs(t, "Conv2DPoolInto", func() { Conv2DPoolInto(dstConv, in, kern, 1, 1, col, 4, pool, &wg) })
	if !bitEqual(dstConv, wantConv) {
		t.Error("Conv2DPoolInto differs from Conv2D")
	}
}

// TestParallelMatMulEvenSplit pins the even ±1 row split of the pooled
// fan-out: MatMulParallelInto stays correct when the row count is not a
// multiple of the worker count — including the shapes where ceil
// chunking would idle trailing workers (10 rows / 4 workers -> chunks
// 3,3,3,1; the even split gives 3,3,2,2) — when more workers are asked
// for than there are rows, and when more are asked for than the pool
// holds.
func TestParallelMatMulEvenSplit(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	pool := NewWorkPool(7)
	defer pool.Close()
	var wg sync.WaitGroup
	for _, m := range []int{1, 2, 3, 5, 10, 16, 17} {
		a := randTensor(r, m, 6)
		b := randTensor(r, 6, 4)
		want, err := MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got := New(m, 4)
		for _, workers := range []int{1, 2, 3, 4, 8, m + 3} {
			got.Fill(-1)
			MatMulParallelInto(got, a, b, workers, pool, &wg)
			if !bitEqual(got, want) {
				t.Errorf("m=%d workers=%d: parallel result differs", m, workers)
			}
		}
	}
}

// TestArena exercises the arena contract: exact-shape reuse, same-class
// reslicing, early Recycle, Wrap isolation, and the hit/miss counters.
func TestArena(t *testing.T) {
	var a Arena

	t1 := a.Get(4, 8)
	if got := t1.Shape(); got[0] != 4 || got[1] != 8 {
		t.Fatalf("Get shape %v", got)
	}
	if h, m := a.Stats(); h != 0 || m != 1 {
		t.Fatalf("after first Get: hits=%d misses=%d", h, m)
	}
	a.Reset()

	// Exact-shape reuse: same header and data come back.
	t2 := a.Get(4, 8)
	if t2 != t1 {
		t.Error("exact-shape Get did not reuse the recycled tensor")
	}
	if h, _ := a.Stats(); h != 1 {
		t.Errorf("exact-shape reuse not counted as hit")
	}
	a.Reset()

	// Same class, different shape: data buffer is reused in place.
	t3 := a.Get(2, 16)
	if h, m := a.Stats(); h != 2 || m != 1 {
		t.Errorf("class reuse: hits=%d misses=%d, want 2 and 1", h, m)
	}
	if t3.Len() != 32 {
		t.Errorf("resliced tensor length %d", t3.Len())
	}

	// Early recycle feeds the next Get without new allocation.
	a.Recycle(t3)
	t4 := a.Get(2, 16)
	if t4 != t3 {
		t.Error("Recycle did not return the buffer to the free list")
	}
	a.Reset()

	// Wrap headers view caller data and never enter the buffer lists.
	data := []float32{1, 2, 3, 4, 5, 6}
	w := a.Wrap(data, 2, 3)
	if &w.Data()[0] != &data[0] {
		t.Error("Wrap copied instead of viewing")
	}
	a.Recycle(w) // must be ignored: not arena-owned
	got := a.Get(2, 3)
	if len(got.Data()) == len(data) && &got.Data()[0] == &data[0] {
		t.Error("caller-owned data leaked into the arena free lists")
	}
	a.Reset()
	if w.Data() != nil {
		t.Error("Reset did not release the Wrap header's view")
	}

	// Steady state: a fixed Get pattern allocates nothing.
	a.Reset()
	shape1, shape2 := []int{3, 5}, []int{4, 4, 2}
	warm := func() {
		x := a.Get(shape1...)
		y := a.Get(shape2...)
		_ = a.Wrap(data, 2, 3)
		a.Recycle(x)
		_ = a.Get(shape1...)
		_ = y
		a.Reset()
	}
	warm()
	assertZeroAllocs(t, "Arena steady state", warm)
}

// TestWorkPoolLifecycle checks Close joins the resident workers.
func TestWorkPoolLifecycle(t *testing.T) {
	pool := NewWorkPool(2)
	if pool.Workers() != 2 {
		t.Fatalf("Workers() = %d", pool.Workers())
	}
	r := rand.New(rand.NewSource(2))
	a := randTensor(r, 8, 8)
	b := randTensor(r, 8, 8)
	dst := New(8, 8)
	var wg sync.WaitGroup
	MatMulParallelInto(dst, a, b, 3, pool, &wg)
	pool.Close() // must not hang or leak; leakcheck in the root suite watches goroutines
}

func bitEqual(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if ad[i] != bd[i] {
			return false
		}
	}
	return true
}
