package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randQ fills a QTensor with deterministic pseudo-random int8 values.
func randQ(r *rand.Rand, shape ...int) *QTensor {
	q := newQ(shape...)
	for i := range q.data {
		q.data[i] = int8(r.Intn(256) - 128)
	}
	return q
}

// qMatMulOracle is the trivially-correct int32 reference the packed
// GEMM must match exactly.
func qMatMulOracle(a, b *QTensor) []int32 {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	acc := make([]int32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s int32
			for p := 0; p < k; p++ {
				s += int32(a.data[i*k+p]) * int32(b.data[p*n+j])
			}
			acc[i*n+j] = s
		}
	}
	return acc
}

func TestQMatMulMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {5, 7, 9}, {8, 8, 8}, {16, 16, 16},
		{7, 13, 5}, {128, 128, 128}, {33, 100, 17}, {1, 784, 32},
		{64, 27, 16}, {3, 255, 4}, {12, 129, 31},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randQ(r, m, k)
		b := randQ(r, k, n)
		PackLHS(a)
		packRHS(b)
		acc := make([]int32, m*n)
		QMatMulInto(acc, a, b)
		want := qMatMulOracle(a, b)
		for i := range want {
			if acc[i] != want[i] {
				t.Fatalf("shape %v: acc[%d] = %d, want %d", sh, i, acc[i], want[i])
			}
		}
	}
}

// TestQMatMulExtremes drives the SWAR accumulation at the corners of
// the int8 range and a model-zoo-deep reduction, where lane carries
// and the signed correction would first go wrong.
func TestQMatMulExtremes(t *testing.T) {
	const m, k, n = 2, 4608, 8
	for _, tc := range []struct {
		name string
		av   int8
		bv   int8
	}{
		{"minxmax", -128, 127},
		{"maxxmax", 127, 127},
		{"minxmin", -128, -128},
	} {
		a := newQ(m, k)
		b := newQ(k, n)
		for i := range a.data {
			a.data[i] = tc.av
		}
		for i := range b.data {
			b.data[i] = tc.bv
		}
		PackLHS(a)
		packRHS(b)
		acc := make([]int32, m*n)
		QMatMulInto(acc, a, b)
		want := int32(k) * int32(tc.av) * int32(tc.bv)
		for i, got := range acc {
			if got != want {
				t.Fatalf("%s: acc[%d] = %d, want %d", tc.name, i, got, want)
			}
		}
	}
}

func TestQMatMulRejectsDeepReductions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("QMatMulInto beyond MaxQMatMulK did not panic")
		}
	}()
	QMatMulInto(make([]int32, 1), newQ(1, MaxQMatMulK+2), newQ(MaxQMatMulK+2, 1))
}

// qConvOracle computes a quantized convolution the slow way: walk every
// receptive-field tap, substituting the zero point outside the image.
// Weights use the transposed [c·kh·kw, oc] layout of
// QuantizeConvWeights; output is patch-major like QConv2DInto's.
func qConvOracle(in, w *QTensor, kh, kw, stride, pad int) []int32 {
	n, c, h, wd := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	kt, oc := w.shape[0], w.shape[1]
	oh := (h+2*pad-kh)/stride + 1
	ow := (wd+2*pad-kw)/stride + 1
	zp := in.zps[0]
	acc := make([]int32, n*oh*ow*oc)
	for img := 0; img < n; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				patch := oy*ow + ox
				for j := 0; j < oc; j++ {
					var s int32
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								iy := oy*stride - pad + ky
								ix := ox*stride - pad + kx
								v := zp
								if iy >= 0 && iy < h && ix >= 0 && ix < wd {
									v = int32(in.data[((img*c+ch)*h+iy)*wd+ix])
								}
								p := (ch*kh+ky)*kw + kx
								s += v * int32(w.data[p*oc+j])
							}
						}
					}
					acc[(img*oh*ow+patch)*oc+j] = s
				}
			}
		}
	}
	_ = kt
	return acc
}

func TestQConv2DMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cases := []struct {
		n, c, h, w, oc, kh, kw, stride, pad int
	}{
		{1, 1, 5, 5, 1, 3, 3, 1, 1},
		{2, 3, 8, 8, 4, 3, 3, 1, 1},
		{1, 2, 9, 7, 5, 3, 3, 2, 1},
		{2, 4, 6, 6, 3, 1, 1, 1, 0},
		{1, 3, 11, 11, 2, 5, 5, 2, 2},
	}
	for _, tc := range cases {
		in := randQ(r, tc.n, tc.c, tc.h, tc.w)
		in.setParams(0.05, int32(r.Intn(64)-32))
		w := randQ(r, tc.c*tc.kh*tc.kw, tc.oc)
		packRHS(w)
		oh := (tc.h+2*tc.pad-tc.kh)/tc.stride + 1
		ow := (tc.w+2*tc.pad-tc.kw)/tc.stride + 1
		patches := oh * ow
		kt := tc.c * tc.kh * tc.kw
		lhs := make([]uint64, patches*kwords(kt))
		rsum := make([]int32, patches)
		acc := make([]int32, tc.n*patches*tc.oc)
		QConv2DInto(acc, in, w, tc.kh, tc.kw, tc.stride, tc.pad, lhs, rsum)
		want := qConvOracle(in, w, tc.kh, tc.kw, tc.stride, tc.pad)
		for i := range want {
			if acc[i] != want[i] {
				t.Fatalf("case %+v: acc[%d] = %d, want %d", tc, i, acc[i], want[i])
			}
		}
	}
}

// TestQuantRoundTrip pins the quantize→dequantize error bound: any
// value inside the calibrated range reconstructs within scale/2.
func TestQuantRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ranges := [][2]float32{{-1, 1}, {0, 5}, {-3, 0.5}, {2, 7}, {-0.01, 0.02}}
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		scale, zp := AffineParams(lo, hi)
		src := make([]float32, 256)
		for i := range src {
			src[i] = lo + r.Float32()*(hi-lo)
		}
		q := newQ(len(src))
		QuantizeInto(q, src, scale, zp)
		back := make([]float32, len(src))
		DequantizeInto(back, q)
		tol := scale/2 + scale*1e-3
		for i, v := range src {
			if diff := float64(v - back[i]); math.Abs(diff) > float64(tol) {
				t.Fatalf("range %v: round-trip error %g at %g exceeds scale/2 = %g", rg, diff, v, scale/2)
			}
		}
	}
}

// TestQuantZeroIsExact checks the padding invariant: the real value 0
// quantizes to the zero point and dequantizes to exactly 0, for ranges
// that include, exclude, or touch zero.
func TestQuantZeroIsExact(t *testing.T) {
	for _, rg := range [][2]float32{{-1, 1}, {0.5, 3}, {-4, -0.25}, {0, 2}} {
		scale, zp := AffineParams(rg[0], rg[1])
		src := []float32{0}
		q := newQ(1)
		QuantizeInto(q, src, scale, zp)
		if got := q.Data()[0]; int32(got) != zp {
			t.Fatalf("range %v: quantized 0 = %d, want zero point %d", rg, got, zp)
		}
		back := make([]float32, 1)
		DequantizeInto(back, q)
		if back[0] != 0 {
			t.Fatalf("range %v: dequantized zero point = %g, want exactly 0", rg, back[0])
		}
	}
}

// TestQuantSaturation pins behaviour at and beyond the int8 extremes:
// out-of-range values clamp to -128/127 and reconstruct to the range
// edges rather than wrapping.
func TestQuantSaturation(t *testing.T) {
	scale, zp := AffineParams(-1, 1)
	src := []float32{-100, 100, float32(math.Inf(-1)), float32(math.Inf(1)), -1, 1}
	q := newQ(len(src))
	QuantizeInto(q, src, scale, zp)
	d := q.Data()
	for i, want := range []int8{-128, 127, -128, 127} {
		if d[i] != want {
			t.Fatalf("saturating %g: got %d, want %d", src[i], d[i], want)
		}
	}
	back := make([]float32, len(src))
	DequantizeInto(back, q)
	lo := float32(int32(-128)-zp) * scale
	hi := float32(int32(127)-zp) * scale
	if back[0] != lo || back[1] != hi {
		t.Fatalf("saturated round-trip = (%g, %g), want range edges (%g, %g)", back[0], back[1], lo, hi)
	}
	// In-range endpoints stay within the usual bound.
	if math.Abs(float64(back[4]+1)) > float64(scale) || math.Abs(float64(back[5]-1)) > float64(scale) {
		t.Fatalf("endpoints round-tripped to (%g, %g)", back[4], back[5])
	}
}

// TestQuantPerChannelVsPerTensor is the satellite property test: on a
// weight matrix whose columns are constant but wildly different in
// magnitude, per-channel scales reconstruct every column almost
// exactly while a single per-tensor scale collapses the small ones.
func TestQuantPerChannelVsPerTensor(t *testing.T) {
	consts := []float32{0.01, -0.1, 1, 10}
	const k = 16
	w := New(k, len(consts))
	for p := 0; p < k; p++ {
		for j, c := range consts {
			w.Data()[p*len(consts)+j] = c
		}
	}
	q := QuantizeDenseWeights(w)
	if q.axis != 1 || len(q.Scales()) != len(consts) {
		t.Fatalf("per-channel axis/scales = %d/%d", q.axis, len(q.Scales()))
	}
	back := make([]float32, len(q.data))
	DequantizeInto(back, q)

	// Per-tensor baseline: one symmetric scale over the whole matrix.
	var maxAbs float32
	for _, v := range w.Data() {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	gs := symmetricScale(maxAbs)
	qt := newQ(k, len(consts))
	QuantizeInto(qt, w.Data(), gs, 0)
	backT := make([]float32, len(qt.data))
	DequantizeInto(backT, qt)

	for j, c := range consts {
		perChan := math.Abs(float64(back[j] - c))
		perTensor := math.Abs(float64(backT[j] - c))
		if rel := perChan / math.Abs(float64(c)); rel > 1e-5 {
			t.Fatalf("per-channel column %d (const %g): relative error %g", j, c, rel)
		}
		if perChan > perTensor+1e-12 {
			t.Fatalf("column %d: per-channel error %g worse than per-tensor %g", j, perChan, perTensor)
		}
	}
	// The smallest-magnitude column must actually be collapsed by the
	// shared scale (it rounds to zero), or the property is vacuous.
	if backT[0] != 0 {
		t.Fatalf("per-tensor small column survived as %g, expected collapse to 0", backT[0])
	}
}

// TestQuantKernelsMatchOracleAndDontAllocate is the quantized analogue
// of TestIntoKernelsMatchAndDontAllocate: every hot quantized kernel
// is checked for correctness and steady-state allocation-freedom.
func TestQuantKernelsMatchOracleAndDontAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	const m, k, n = 6, 50, 10
	src := make([]float32, m*k)
	for i := range src {
		src[i] = float32(r.NormFloat64())
	}
	scale, zp := AffineParams(-3, 3)

	a := newQ(m, k)
	PackLHS(a) // size the packed buffers
	assertZeroAllocs(t, "QuantizeLHSInto", func() { QuantizeLHSInto(a, src, scale, zp) })

	// The fused quantize+pack must agree with quantize-then-pack.
	a2 := newQ(m, k)
	QuantizeInto(a2, src, scale, zp)
	PackLHS(a2)
	for i := range a.data {
		if a.data[i] != a2.data[i] {
			t.Fatalf("fused quantize data[%d] = %d, want %d", i, a.data[i], a2.data[i])
		}
	}
	for i := range a.lhs {
		if a.lhs[i] != a2.lhs[i] || a.rsum[i/kwords(k)] != a2.rsum[i/kwords(k)] {
			t.Fatal("fused quantize packed form differs from PackLHS")
		}
	}

	b := randQ(r, k, n)
	packRHS(b)
	acc := make([]int32, m*n)
	assertZeroAllocs(t, "QMatMulInto", func() { QMatMulInto(acc, a, b) })
	want := qMatMulOracle(a, b)
	for i := range want {
		if acc[i] != want[i] {
			t.Fatalf("QMatMulInto acc[%d] = %d, want %d", i, acc[i], want[i])
		}
	}

	bias := make([]int32, n)
	for j := range bias {
		bias[j] = int32(r.Intn(2000) - 1000)
	}
	assertZeroAllocs(t, "QAddBiasInto", func() {
		copy(acc, want)
		QAddBiasInto(acc, bias, m, n)
	})
	for i := range acc {
		if acc[i] != want[i]+bias[i%n] {
			t.Fatalf("QAddBiasInto acc[%d] = %d", i, acc[i])
		}
	}

	mult := make([]float32, n)
	for j := range mult {
		mult[j] = 0.001 * float32(j+1)
	}
	out := make([]float32, m*n)
	assertZeroAllocs(t, "DequantizeAccInto", func() { DequantizeAccInto(out, acc, mult, m, n) })
	for i := range out {
		if out[i] != float32(acc[i])*mult[i%n] {
			t.Fatalf("DequantizeAccInto out[%d] = %g", i, out[i])
		}
	}

	outT := make([]float32, m*n)
	assertZeroAllocs(t, "DequantizeAccTInto", func() { DequantizeAccTInto(outT, acc, mult, 1, m, n) })
	for p := 0; p < m; p++ {
		for c := 0; c < n; c++ {
			if outT[c*m+p] != float32(acc[p*n+c])*mult[c] {
				t.Fatalf("DequantizeAccTInto [%d,%d] = %g", c, p, outT[c*m+p])
			}
		}
	}

	rq := newQ(m, n)
	assertZeroAllocs(t, "RequantizeInto", func() { RequantizeInto(rq, acc, mult, 0.1, 3, m, n) })

	back := make([]float32, m*k)
	assertZeroAllocs(t, "DequantizeInto", func() { DequantizeInto(back, a) })

	// Quantized convolution with caller scratch.
	in := randQ(r, 2, 3, 8, 8)
	in.setParams(0.04, 7)
	cw := randQ(r, 3*3*3, 4)
	packRHS(cw)
	const patches = 8 * 8
	lhs := make([]uint64, patches*kwords(27))
	rsum := make([]int32, patches)
	cacc := make([]int32, 2*patches*4)
	assertZeroAllocs(t, "QConv2DInto", func() { QConv2DInto(cacc, in, cw, 3, 3, 1, 1, lhs, rsum) })
	cwant := qConvOracle(in, cw, 3, 3, 1, 1)
	for i := range cwant {
		if cacc[i] != cwant[i] {
			t.Fatalf("QConv2DInto acc[%d] = %d, want %d", i, cacc[i], cwant[i])
		}
	}
}

// TestQuantArena checks the quantized free lists: explicit recycle
// returns the same buffers, packed capacities survive reuse, and the
// steady state allocates nothing.
func TestQuantArena(t *testing.T) {
	var a Arena
	q := a.GetQ(4, 6)
	if q.rank() != 2 || len(q.data) != 24 {
		t.Fatalf("GetQ shape = %v", q.shape)
	}
	if len(q.lhs) < 4*kwords(6) || len(q.rsum) < 4 {
		t.Fatalf("GetQ rank-2 missing packed buffers: lhs %d rsum %d", len(q.lhs), len(q.rsum))
	}
	a.RecycleQ(q)
	if got := a.GetQ(4, 6); got != q {
		t.Fatal("RecycleQ did not return the tensor to the free list")
	}
	a.RecycleQ(q)
	// Same class, different shape: buffer reused, shape rewritten.
	q2 := a.GetQ(5, 5)
	if q2 != q || q2.Dim(0) != 5 || len(q2.data) != 25 {
		t.Fatalf("class reuse: got %p shape %v (want %p)", q2, q2.shape, q)
	}
	a.RecycleQ(q2)

	acc := a.GetAcc(100)
	if len(acc) != 100 {
		t.Fatalf("GetAcc len = %d", len(acc))
	}
	a.RecycleAcc(acc)
	if got := a.GetAcc(70); &got[0] != &acc[0] {
		t.Fatal("RecycleAcc did not recycle the buffer")
	}

	u := a.GetU64(33)
	if len(u) != 33 {
		t.Fatalf("GetU64 len = %d", len(u))
	}
	a.RecycleU64(u)
	if got := a.GetU64(40); &got[0] != &u[0] {
		t.Fatal("RecycleU64 did not recycle the buffer")
	}

	hBefore, _ := a.stats()
	assertZeroAllocs(t, "quantized arena cycle", func() {
		qq := a.GetQ(4, 6)
		ac := a.GetAcc(64)
		uu := a.GetU64(16)
		a.RecycleU64(uu)
		a.RecycleAcc(ac)
		a.RecycleQ(qq)
	})
	hAfter, _ := a.stats()
	if hAfter <= hBefore {
		t.Fatalf("quantized cycle recorded no arena hits (%d -> %d)", hBefore, hAfter)
	}

	a.RecycleQ(nil) // ignored

	// Each list pins at most arenaFreeCap buffers a class and drops the
	// overflow (quantized scratch never spills to the shared pool), and
	// drops a foreign buffer, whose capacity is not a power of two.
	var qa Arena
	checkFreeList(t, "quantized", &qa.freeQ, func() *QTensor { return qa.GetQ(3) }, qa.RecycleQ,
		&QTensor{data: make([]int8, 15)}, func(q *QTensor) any { return q })
	checkFreeList(t, "accumulator", &qa.freeAcc, func() []int32 { return qa.GetAcc(3) }, qa.RecycleAcc,
		make([]int32, 100)[:70], func(b []int32) any { return &b[0] })
	checkFreeList(t, "packed-word", &qa.freeU64, func() []uint64 { return qa.GetU64(3) }, qa.RecycleU64,
		make([]uint64, 33), func(b []uint64) any { return &b[0] })
}

func TestAffineParamsDegenerate(t *testing.T) {
	if s, zp := AffineParams(0, 0); s != 1 || zp != 0 {
		t.Fatalf("degenerate range: scale %g zp %d", s, zp)
	}
	if s := symmetricScale(0); s != 1 {
		t.Fatalf("all-zero channel scale = %g", s)
	}
	// Inverted single-point range still includes zero after widening.
	s, zp := AffineParams(2, 2)
	if s <= 0 {
		t.Fatalf("positive point range: scale %g zp %d", s, zp)
	}
}

// BenchmarkQMatMul is the acceptance benchmark: the packed int8 GEMM
// at BenchmarkMatMulBlocked128's 128x128x128 shape (operands packed
// once, as plans do for weights). bench.sh books the throughput ratio
// as int8_speedup_ratio.
func BenchmarkQMatMul(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randQ(r, 128, 128)
	w := randQ(r, 128, 128)
	PackLHS(a)
	packRHS(w)
	acc := make([]int32, 128*128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QMatMulInto(acc, a, w)
	}
}

// PackLHS builds the packed-LHS form from q's existing int8 data (see
// QuantizeLHSInto for the layout). Cold path: grows the buffers.
func PackLHS(q *QTensor) {
	if q.rank() != 2 {
		panic(fmt.Sprintf("tensor: PackLHS needs a rank-2 tensor, got %v", q.shape))
	}
	m, k := q.shape[0], q.shape[1]
	kw := kwords(k)
	q.ensureLHS(m, k)
	for i := 0; i < m; i++ {
		drow := q.data[i*k : i*k+k]
		lrow := q.lhs[i*kw : i*kw+kw]
		var r int32
		p := 0
		for ; p+2 <= k; p += 2 {
			u0 := uint64(uint8(drow[p]) ^ 0x80)
			u1 := uint64(uint8(drow[p+1]) ^ 0x80)
			r += int32(u0) + int32(u1)
			lrow[p>>1] = u0 | u1<<32
		}
		if p < k {
			u0 := uint64(uint8(drow[p]) ^ 0x80)
			r += int32(u0)
			lrow[p>>1] = u0
		}
		q.rsum[i] = 128 * r
	}
}

// RequantizeInto maps int32 accumulators back to int8 with per-column
// multipliers and a destination zero point: q = round(acc·mult) + zp,
// saturated. The planned forward pass dequantizes to float32 at op
// boundaries instead; this exists for fully-int pipelines and the
// property-test suite.
func RequantizeInto(q *QTensor, acc []int32, mult []float32, scale float32, zp int32, rows, cols int) {
	if len(q.data) < rows*cols || len(acc) < rows*cols || len(mult) < cols {
		panic(fmt.Sprintf("tensor: RequantizeInto dst %d acc %d mult %d for %dx%d", len(q.data), len(acc), len(mult), rows, cols))
	}
	q.setParams(scale, zp)
	for i := 0; i < rows; i++ {
		d := q.data[i*cols : i*cols+cols]
		a := acc[i*cols : i*cols+cols]
		for j := range d {
			f := float32(a[j]) * mult[j]
			if f >= 0 {
				f += 0.5
			} else {
				f -= 0.5
			}
			v := int32(f) + zp
			if v > 127 {
				v = 127
			} else if v < -128 {
				v = -128
			}
			d[j] = int8(v)
		}
	}
}

// DequantizeInto expands a QTensor back to float32:
// v = (q − zp) · scale, with per-channel parameters along Axis when
// set.
func DequantizeInto(dst []float32, q *QTensor) {
	if len(dst) < len(q.data) {
		panic(fmt.Sprintf("tensor: DequantizeInto dst len %d < %d", len(dst), len(q.data)))
	}
	if q.axis < 0 {
		s, zp := q.scales[0], q.zps[0]
		for i, v := range q.data {
			dst[i] = float32(int32(v)-zp) * s
		}
		return
	}
	inner := 1
	for _, d := range q.shape[q.axis+1:] {
		inner *= d
	}
	ch := q.shape[q.axis]
	for i, v := range q.data {
		c := (i / inner) % ch
		dst[i] = float32(int32(v)-q.zps[c]) * q.scales[c]
	}
}
