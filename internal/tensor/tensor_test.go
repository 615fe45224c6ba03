package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Len() != 6 {
		t.Fatalf("Len = %d, want 6", x.Len())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if x.Rank() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("shape = %v, want [2 3]", x.Shape())
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromSlice(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5, 6}
	x, err := FromSlice(data, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if x.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", x.At(1, 2))
	}
	if _, err := FromSlice(data, 2, 2); err == nil {
		t.Fatal("FromSlice with wrong shape did not error")
	}
	if _, err := FromSlice(data, -2, -3); err == nil {
		t.Fatal("FromSlice with negative shape did not error")
	}
}

func TestAtSet(t *testing.T) {
	x := New(2, 2, 2)
	x.Set(7, 1, 0, 1)
	if got := x.At(1, 0, 1); got != 7 {
		t.Fatalf("At = %v, want 7", got)
	}
	// Row-major: index [1,0,1] = 1*4 + 0*2 + 1 = 5.
	if x.Data()[5] != 7 {
		t.Fatalf("backing slice element 5 = %v, want 7", x.Data()[5])
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	x.At(2, 0)
}

func TestReshape(t *testing.T) {
	x := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y, err := x.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if y.At(2, 1) != 6 {
		t.Fatalf("reshaped At(2,1) = %v, want 6", y.At(2, 1))
	}
	// Shared storage.
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("reshape did not share storage")
	}
	if _, err := x.Reshape(4, 2); err == nil {
		t.Fatal("invalid reshape did not error")
	}
}

func TestReshapeInferred(t *testing.T) {
	x := New(4, 6)
	y, err := x.Reshape(2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dim(1) != 12 {
		t.Fatalf("inferred dim = %d, want 12", y.Dim(1))
	}
	if _, err := x.Reshape(-1, -1); err == nil {
		t.Fatal("double inference did not error")
	}
	if _, err := x.Reshape(-1, 5); err == nil {
		t.Fatal("non-divisible inference did not error")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := MustFromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone shares storage")
	}
	if !x.SameShape(y) {
		t.Fatal("Clone changed shape")
	}
}

func TestArgMax(t *testing.T) {
	x := MustFromSlice([]float32{0.1, 0.9, 0.3}, 3)
	if got := x.ArgMax(); got != 1 {
		t.Fatalf("ArgMax = %d, want 1", got)
	}
	empty := New(0)
	if got := empty.ArgMax(); got != -1 {
		t.Fatalf("ArgMax(empty) = %d, want -1", got)
	}
	ties := MustFromSlice([]float32{2, 2}, 2)
	if got := ties.ArgMax(); got != 0 {
		t.Fatalf("ArgMax(ties) = %d, want 0", got)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := MustFromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromSlice([]float32{19, 22, 43, 50}, 2, 2)
	if !c.AllClose(want, 1e-6) {
		t.Fatalf("MatMul = %v, want %v", c.Data(), want.Data())
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a := New(2, 3)
	b := New(4, 2)
	if _, err := MatMul(a, b); err == nil {
		t.Fatal("mismatched MatMul did not error")
	}
	if _, err := MatMul(New(2), b); err == nil {
		t.Fatal("rank-1 MatMul did not error")
	}
	if _, err := MatMulNaive(a, b); err == nil {
		t.Fatal("mismatched MatMulNaive did not error")
	}
}

// randTensor builds a deterministic pseudo-random tensor for differential
// tests.
func randTensor(r *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data() {
		t.Data()[i] = float32(r.NormFloat64())
	}
	return t
}

// TestMatMulMatchesNaiveProperty holds the blocked kernel to the naive
// triple loop bit for bit: both add each element's products in ascending
// k from zero, so any difference is a reordering bug. The fixed shapes
// give k every residue mod 4, cross the 64-wide k block, and cover the
// FFNN's dense layers at batch 1 and 16; quick.Check adds random ones.
func TestMatMulMatchesNaiveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	matches := func(m, k, n int) bool {
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		fast, err := MatMul(a, b)
		if err != nil {
			return false
		}
		slow, err := MatMulNaive(a, b)
		if err != nil {
			return false
		}
		return bitEqual(fast, slow)
	}
	for _, s := range [][3]int{
		{1, 1, 1}, {1, 2, 3}, {1, 3, 5}, {1, 4, 7}, {3, 5, 9}, {2, 6, 1}, {1, 7, 4},
		{2, 63, 17}, {1, 64, 16}, {4, 65, 3}, {1, 66, 5}, {1, 127, 8}, {5, 128, 33}, {1, 129, 2}, {3, 200, 31},
		{1, 784, 32}, {16, 784, 32}, {1, 32, 32}, {16, 32, 32}, {1, 32, 10}, {16, 32, 10},
	} {
		if !matches(s[0], s[1], s[2]) {
			t.Errorf("%dx%dx%d: MatMul differs from MatMulNaive", s[0], s[1], s[2])
		}
	}
	f := func(mi, ki, ni uint8) bool {
		return matches(int(mi)%17+1, int(ki)%200+1, int(ni)%17+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulParallelMatchesSequentialProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pool := NewWorkPool(7)
	defer pool.Close()
	var wg sync.WaitGroup
	f := func(mi, ki, ni, wi uint8) bool {
		m, k, n := int(mi)%33+1, int(ki)%65+1, int(ni)%33+1
		workers := int(wi)%8 + 1
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		seq, err := MatMul(a, b)
		if err != nil {
			return false
		}
		par := New(m, n)
		par.Fill(-1)
		MatMulParallelInto(par, a, b, workers, pool, &wg)
		return bitEqual(seq, par)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAddBias(t *testing.T) {
	x := MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := MustFromSlice([]float32{10, 20}, 2)
	if _, err := AddBias(x, b); err != nil {
		t.Fatal(err)
	}
	want := MustFromSlice([]float32{11, 22, 13, 24}, 2, 2)
	if !x.AllClose(want, 0) {
		t.Fatalf("AddBias = %v, want %v", x.Data(), want.Data())
	}
	if _, err := AddBias(x, New(3)); err == nil {
		t.Fatal("mismatched AddBias did not error")
	}
}

func TestAddAndAddInPlace(t *testing.T) {
	a := MustFromSlice([]float32{1, 2}, 2)
	b := MustFromSlice([]float32{3, 4}, 2)
	c, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.At(1) != 6 || a.At(1) != 2 {
		t.Fatal("Add wrong result or mutated operand")
	}
	if _, err := AddInPlace(a, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0) != 4 {
		t.Fatalf("AddInPlace = %v, want 4", a.At(0))
	}
	if _, err := Add(a, New(3)); err == nil {
		t.Fatal("mismatched Add did not error")
	}
	if _, err := AddInPlace(a, New(3)); err == nil {
		t.Fatal("mismatched AddInPlace did not error")
	}
}

func TestReLU(t *testing.T) {
	x := MustFromSlice([]float32{-1, 0, 2}, 3)
	ReLU(x)
	want := MustFromSlice([]float32{0, 0, 2}, 3)
	if !x.AllClose(want, 0) {
		t.Fatalf("ReLU = %v", x.Data())
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := randTensor(r, 4, 10)
	if _, err := Softmax(x); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		var s float64
		for j := 0; j < 10; j++ {
			v := x.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax value out of [0,1]: %v", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-4 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
	// Rank 1 is a single row since the last-dim generalisation.
	one := MustFromSlice([]float32{1, 2, 3}, 3)
	if _, err := Softmax(one); err != nil {
		t.Fatal(err)
	}
	var s1 float64
	for _, v := range one.Data() {
		s1 += float64(v)
	}
	if math.Abs(s1-1) > 1e-4 {
		t.Fatalf("rank-1 softmax sums to %v", s1)
	}
	if _, err := Softmax(New()); err == nil {
		t.Fatal("rank-0 Softmax did not error")
	}
}

func TestSoftmaxStability(t *testing.T) {
	// Large logits must not overflow to NaN.
	x := MustFromSlice([]float32{1000, 1001, 1002}, 1, 3)
	if _, err := Softmax(x); err != nil {
		t.Fatal(err)
	}
	for _, v := range x.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax produced %v", v)
		}
	}
	if x.ArgMax() != 2 {
		t.Fatalf("softmax argmax = %d, want 2", x.ArgMax())
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// A 1x1 identity kernel must reproduce the input.
	in := MustFromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	k := MustFromSlice([]float32{1}, 1, 1, 1, 1)
	out, err := Conv2D(in, k, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllClose(in, 1e-6) {
		t.Fatalf("identity conv = %v", out.Data())
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 3x3 input, 2x2 sum kernel, stride 1, no pad.
	in := MustFromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	k := MustFromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	out, err := Conv2D(in, k, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromSlice([]float32{12, 16, 24, 28}, 1, 1, 2, 2)
	if !out.AllClose(want, 1e-5) {
		t.Fatalf("conv = %v, want %v", out.Data(), want.Data())
	}
}

func TestConv2DPaddingAndStride(t *testing.T) {
	in := New(1, 1, 4, 4)
	in.Fill(1)
	k := MustFromSlice([]float32{1, 1, 1, 1, 1, 1, 1, 1, 1}, 1, 1, 3, 3)
	out, err := Conv2D(in, k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(2) != 2 || out.Dim(3) != 2 {
		t.Fatalf("output shape = %v, want spatial 2x2", out.Shape())
	}
	// Top-left window covers 2x2 ones (pad zeros elsewhere): sum 4.
	if out.At(0, 0, 0, 0) != 4 {
		t.Fatalf("corner = %v, want 4", out.At(0, 0, 0, 0))
	}
}

func TestConv2DErrors(t *testing.T) {
	in := New(1, 2, 4, 4)
	k := New(1, 3, 3, 3)
	if _, err := Conv2D(in, k, 1, 0); err == nil {
		t.Fatal("channel mismatch did not error")
	}
	if _, err := Conv2D(in, New(1, 2, 3, 3), 0, 0); err == nil {
		t.Fatal("zero stride did not error")
	}
	if _, err := Conv2D(in, New(1, 2, 9, 9), 1, 0); err == nil {
		t.Fatal("oversized kernel did not error")
	}
	if _, err := Conv2D(New(3), k, 1, 0); err == nil {
		t.Fatal("rank mismatch did not error")
	}
}

func TestConv2DReferenceMatchesBlocked(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	f := func(hRaw, icRaw, ocRaw, strideRaw, padRaw uint8) bool {
		h := int(hRaw)%10 + 4
		ic := int(icRaw)%3 + 1
		oc := int(ocRaw)%4 + 1
		stride := int(strideRaw)%2 + 1
		pad := int(padRaw) % 2
		in := randTensor(r, 1, ic, h, h)
		k := randTensor(r, oc, ic, 3, 3)
		a, err := Conv2D(in, k, stride, pad)
		if err != nil {
			return true // degenerate geometry; both reject
		}
		b, err := Conv2DReference(in, k, stride, pad)
		if err != nil {
			return false
		}
		return a.AllClose(b, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConv2DPoolIntoMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	in := randTensor(r, 2, 3, 9, 9)
	k := randTensor(r, 4, 3, 3, 3)
	seq, err := Conv2D(in, k, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewWorkPool(3)
	defer pool.Close()
	var wg sync.WaitGroup
	par := New(seq.Shape()...)
	par.Fill(-1)
	Conv2DPoolInto(par, in, k, 1, 1, make([]float32, Conv2DScratchLen(in, k, 1, 1)), 4, pool, &wg)
	if !bitEqual(seq, par) {
		t.Fatal("pooled conv differs from sequential")
	}
}

func TestBatchNorm(t *testing.T) {
	in := MustFromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	gamma := MustFromSlice([]float32{2}, 1)
	beta := MustFromSlice([]float32{1}, 1)
	mean := MustFromSlice([]float32{2.5}, 1)
	variance := MustFromSlice([]float32{1}, 1)
	if _, err := BatchNorm(in, gamma, beta, mean, variance, 0); err != nil {
		t.Fatal(err)
	}
	want := MustFromSlice([]float32{-2, 0, 2, 4}, 1, 1, 2, 2)
	if !in.AllClose(want, 1e-4) {
		t.Fatalf("BatchNorm = %v, want %v", in.Data(), want.Data())
	}
	if _, err := BatchNorm(New(2), gamma, beta, mean, variance, 0); err == nil {
		t.Fatal("rank mismatch did not error")
	}
	if _, err := BatchNorm(New(1, 2, 2, 2), gamma, beta, mean, variance, 0); err == nil {
		t.Fatal("channel mismatch did not error")
	}
}

func TestAddChannelBias(t *testing.T) {
	in := New(1, 2, 1, 2)
	b := MustFromSlice([]float32{1, 10}, 2)
	if _, err := AddChannelBias(in, b); err != nil {
		t.Fatal(err)
	}
	want := MustFromSlice([]float32{1, 1, 10, 10}, 1, 2, 1, 2)
	if !in.AllClose(want, 0) {
		t.Fatalf("AddChannelBias = %v", in.Data())
	}
	if _, err := AddChannelBias(in, New(3)); err == nil {
		t.Fatal("mismatch did not error")
	}
}

func TestMaxPool2D(t *testing.T) {
	in := MustFromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out, err := MaxPool2D(in, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromSlice([]float32{6, 8, 14, 16}, 1, 1, 2, 2)
	if !out.AllClose(want, 0) {
		t.Fatalf("MaxPool = %v, want %v", out.Data(), want.Data())
	}
	if _, err := MaxPool2D(New(2), 2, 2, 0); err == nil {
		t.Fatal("rank mismatch did not error")
	}
	if _, err := MaxPool2D(in, 9, 1, 0); err == nil {
		t.Fatal("oversized pool did not error")
	}
}

func TestGlobalAvgPool2D(t *testing.T) {
	in := MustFromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	out, err := GlobalAvgPool2D(in)
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromSlice([]float32{2.5, 25}, 1, 2)
	if !out.AllClose(want, 1e-5) {
		t.Fatalf("GlobalAvgPool = %v, want %v", out.Data(), want.Data())
	}
	if _, err := GlobalAvgPool2D(New(2)); err == nil {
		t.Fatal("rank mismatch did not error")
	}
	if _, err := GlobalAvgPool2D(New(1, 1, 0, 0)); err == nil {
		t.Fatal("empty spatial dims did not error")
	}
}

func TestSumAndFill(t *testing.T) {
	x := New(3)
	x.Fill(2)
	if x.Sum() != 6 {
		t.Fatalf("Sum = %v, want 6", x.Sum())
	}
}

func TestAllCloseShapeMismatch(t *testing.T) {
	if New(2).AllClose(New(3), 1) {
		t.Fatal("AllClose accepted different shapes")
	}
	if New(2).AllClose(New(1, 2), 1) {
		t.Fatal("AllClose accepted different ranks")
	}
}

func TestString(t *testing.T) {
	if got := New(2, 3).String(); got != "Tensor[2 3]" {
		t.Fatalf("String = %q", got)
	}
}

func TestMatMulIntoPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMulInto mismatch did not panic")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(4, 2))
}

// TestMatMulParallelIntoPanicsOnMismatch: the pooled kernel has no
// error return, so the shape mistakes MatMul reports as errors must
// stop it before any row is handed to a worker.
func TestMatMulParallelIntoPanicsOnMismatch(t *testing.T) {
	pool := NewWorkPool(1)
	defer pool.Close()
	var wg sync.WaitGroup
	for name, operands := range map[string][3]*Tensor{
		"inner dims":  {New(2, 2), New(2, 3), New(4, 2)},
		"rank-1 lhs":  {New(3, 2), New(3), New(4, 2)},
		"dst too big": {New(3, 2), New(2, 4), New(4, 2)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MatMulParallelInto mismatch did not panic", name)
				}
			}()
			MatMulParallelInto(operands[0], operands[1], operands[2], 2, pool, &wg)
		}()
	}
}

func BenchmarkMatMulBlocked128(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randTensor(r, 128, 128)
	x := randTensor(r, 128, 128)
	c := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(c, a, x)
	}
}

// BenchmarkMatMulFFNN times the kernel at the FFNN's 784×32 input layer,
// batch 1 and 16: the shape the paper's default row spends its scoring
// time in.
func BenchmarkMatMulFFNN(b *testing.B) {
	for _, m := range []int{1, 16} {
		b.Run(fmt.Sprintf("%dx784x32", m), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			a := randTensor(r, m, 784)
			x := randTensor(r, 784, 32)
			c := New(m, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(c, a, x)
			}
		})
	}
}

func BenchmarkMatMulNaive128(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randTensor(r, 128, 128)
	x := randTensor(r, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMulNaive(a, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConv2D(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	in := randTensor(r, 1, 8, 28, 28)
	k := randTensor(r, 16, 8, 3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Conv2D(in, k, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConv2DInto measures the hot path Plans actually run:
// preallocated destination and im2col scratch, zero steady-state
// allocations (BenchmarkConv2D above keeps the allocating wrapper as
// the baseline).
func BenchmarkConv2DInto(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	in := randTensor(r, 1, 8, 28, 28)
	k := randTensor(r, 16, 8, 3, 3)
	oh, ow := Conv2DOutDims(in, k, 1, 1)
	dst := New(1, 16, oh, ow)
	col := make([]float32, Conv2DScratchLen(in, k, 1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DInto(dst, in, k, 1, 1, col)
	}
}

// MatMulNaive is a textbook triple loop used as the baseline for the
// blocked-matmul ablation bench and as a differential-testing oracle.
func MatMulNaive(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 || a.shape[1] != b.shape[0] {
		return nil, fmt.Errorf("tensor: MatMulNaive shape mismatch %v × %v", a.shape, b.shape)
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.data[i*k+p] * b.data[p*n+j]
			}
			c.data[i*n+j] = s
		}
	}
	return c, nil
}

// Add computes element-wise a + b into a new tensor.
func Add(a, b *Tensor) (*Tensor, error) {
	if !a.SameShape(b) {
		return nil, fmt.Errorf("tensor: Add shape mismatch %v + %v", a.shape, b.shape)
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out, nil
}

// MustFromSlice is FromSlice but panics on error. Intended for tests and
// literals with statically-known shapes.
func MustFromSlice(data []float32, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// ArgMax returns the index of the largest element, or -1 for an empty
// tensor. Ties resolve to the lowest index.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		return -1
	}
	best, bi := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}
