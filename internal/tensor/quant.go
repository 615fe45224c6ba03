package tensor

import (
	"fmt"
)

// Quantized int8 inference kernels (docs/QUANTIZATION.md).
//
// The scheme is post-training static quantization: weights are symmetric
// per-channel int8 (zero point 0, one scale per output channel),
// activations are asymmetric per-tensor int8 (one scale + zero point
// covering the calibrated range, widened so the real value 0 is exactly
// representable — padding then quantizes to the zero point). Matrix
// products accumulate in int32 and dequantize with precomputed
// per-channel multipliers, so the float work per output element is one
// multiply.
//
// The int8 GEMM does not use byte-wise multiply-accumulate (Go has no
// vector intrinsics and a scalar int8 loop loses to the float32 blocked
// kernel). Instead it packs two k-steps per uint64 lane and uses one
// 64-bit integer multiply as a 2-way multiply-accumulate — see the
// layout notes on PackLHS/packRHS and the derivation on MaxQMatMulK.

// MaxQMatMulK bounds the reduction depth of the packed int8 GEMM.
// Three constraints from the SWAR accumulation, with unsigned operands
// u ≤ 255 so each pair product is ≤ 255·255 = 65025:
//
//   - the low 32 bits of the uint64 accumulator collect ⌈k/2⌉ cross
//     products that must never carry into bit 32: k/2 · 65025 < 2³²
//   - the middle lane collects the true unsigned dot product, which
//     must stay below 2³² for exact extraction: k · 65025 < 2³²
//   - the signed result after zero-point correction must fit int32
//
// k ≤ 32768 satisfies all three with ~2× headroom and covers every
// layer in the model zoo (the deepest reduction is 4608 = 512·3·3).
const MaxQMatMulK = 32768

// QTensor is an int8 tensor with its quantization parameters and,
// optionally, the packed forms the int8 GEMM consumes. scales/zps hold
// one entry for per-tensor quantization (axis < 0) or one per channel
// along axis. The packed forms are role-specific: PackLHS prepares the
// tensor as a GEMM left operand (rows), packRHS as a right operand
// (column panels); either may be absent.
type QTensor struct {
	shape  []int
	data   []int8
	scales []float32
	zps    []int32
	axis   int

	lhs  []uint64 // k-pair packed rows: lo lane = even k-step, hi = odd
	rsum []int32  // per row: 128 · Σ unsigned(data)
	rhs  []uint64 // k-pair packed 4-column panels, pair-REVERSED lanes
	csum []int32  // per column: Σ signed(data)
}

// newQ returns a zero-valued QTensor of the given shape with identity
// quantization parameters (scale 1, zero point 0, per-tensor).
func newQ(shape ...int) *QTensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: NewQ with non-positive dim %v", shape))
		}
		n *= d
	}
	return &QTensor{
		shape:  append([]int(nil), shape...),
		data:   make([]int8, n),
		scales: []float32{1},
		zps:    []int32{0},
		axis:   -1,
	}
}

// rank returns the number of dimensions.
func (q *QTensor) rank() int { return len(q.shape) }

// Dim returns the size of dimension i.
func (q *QTensor) Dim(i int) int { return q.shape[i] }

// Data returns the int8 storage in row-major order.
func (q *QTensor) Data() []int8 { return q.data }

// Scales returns the quantization scales: one entry per-tensor, or one
// per channel along Axis.
func (q *QTensor) Scales() []float32 { return q.scales }

// ColSums returns the per-column signed sums built by packRHS (needed
// to fold the activation zero point into the bias).
func (q *QTensor) ColSums() []int32 { return q.csum }

// setParams installs per-tensor quantization parameters.
func (q *QTensor) setParams(scale float32, zp int32) {
	q.scales = q.scales[:0]
	q.scales = append(q.scales, scale)
	q.zps = q.zps[:0]
	q.zps = append(q.zps, zp)
	q.axis = -1
}

// kwords returns how many uint64 pair-words hold a k-deep row.
func kwords(k int) int { return (k + 1) / 2 }

// ensureLHS sizes the packed-LHS buffers for an [m,k] tensor. Reslices
// in place when capacity allows, so it only allocates the first time
// (arena-pooled QTensors keep their capacity across recycling).
func (q *QTensor) ensureLHS(m, k int) {
	need := m * kwords(k)
	if cap(q.lhs) >= need {
		q.lhs = q.lhs[:need]
	} else {
		q.lhs = make([]uint64, need)
	}
	if cap(q.rsum) >= m {
		q.rsum = q.rsum[:m]
	} else {
		q.rsum = make([]int32, m)
	}
}

// AffineParams derives per-tensor asymmetric int8 parameters covering
// [min, max]. The range is widened to include 0 so the real value 0
// maps exactly onto the zero point (convolution padding depends on
// this). A degenerate range yields identity parameters.
func AffineParams(min, max float32) (scale float32, zp int32) {
	if min > 0 {
		min = 0
	}
	if max < 0 {
		max = 0
	}
	if max == min {
		return 1, 0
	}
	scale = (max - min) / 255
	z := -128 - min/scale
	if z >= 0 {
		z += 0.5
	} else {
		z -= 0.5
	}
	zp = int32(z)
	if zp > 127 {
		zp = 127
	} else if zp < -128 {
		zp = -128
	}
	return scale, zp
}

// symmetricScale derives a symmetric int8 scale for values in
// [-maxAbs, maxAbs] (zero point 0). An all-zero channel gets scale 1
// so dequantization stays well-defined.
func symmetricScale(maxAbs float32) float32 {
	if maxAbs <= 0 {
		return 1
	}
	return maxAbs / 127
}

// quantizeVal maps one float to int8: divide by scale (inv = 1/scale),
// round half away from zero, shift by the zero point, saturate.
func quantizeVal(v, inv float32, zp int32) int8 {
	f := v * inv
	if f >= 0 {
		f += 0.5
	} else {
		f -= 0.5
	}
	// Pre-saturate in float space: Go's float→int conversion is
	// implementation-defined out of range, and ±512 already saturates
	// for every zero point. The negated comparison routes NaN (which
	// calibration can't produce) to the low clamp deterministically.
	if f > 512 {
		f = 512
	} else if !(f >= -512) {
		f = -512
	}
	qv := int32(f) + zp
	if qv > 127 {
		qv = 127
	} else if qv < -128 {
		qv = -128
	}
	return int8(qv)
}

// QuantizeInto quantizes src into q's data with the given per-tensor
// parameters, without building packed forms (convolution inputs are
// packed per image by the fused im2col instead).
func QuantizeInto(q *QTensor, src []float32, scale float32, zp int32) {
	if len(src) != len(q.data) {
		panic(fmt.Sprintf("tensor: QuantizeInto src len %d vs tensor len %d", len(src), len(q.data)))
	}
	q.setParams(scale, zp)
	inv := 1 / scale
	for i, v := range src {
		q.data[i] = quantizeVal(v, inv, zp)
	}
}

// QuantizeLHSInto quantizes a row-major [m,k] float32 batch into q and
// builds the packed-LHS form in the same pass: each pair of adjacent
// k-steps becomes one uint64 word (low lane = even step, high lane =
// odd step) of the sign-flipped unsigned values u = uint8(q)^0x80, and
// rsum collects 128·Σu per row for the epilogue correction. q must be
// [m,k] with LHS buffers sized (arena GetQ does both).
func QuantizeLHSInto(q *QTensor, src []float32, scale float32, zp int32) {
	if q.rank() != 2 {
		panic(fmt.Sprintf("tensor: QuantizeLHSInto needs a rank-2 tensor, got %v", q.shape))
	}
	m, k := q.shape[0], q.shape[1]
	if len(src) != m*k {
		panic(fmt.Sprintf("tensor: QuantizeLHSInto src len %d vs %dx%d", len(src), m, k))
	}
	kw := kwords(k)
	if len(q.lhs) < m*kw || len(q.rsum) < m {
		panic("tensor: QuantizeLHSInto packed buffers not sized (PackLHS or arena GetQ first)")
	}
	q.setParams(scale, zp)
	inv := 1 / scale
	for i := 0; i < m; i++ {
		row := src[i*k : i*k+k]
		drow := q.data[i*k : i*k+k]
		lrow := q.lhs[i*kw : i*kw+kw]
		var r int32
		p := 0
		for ; p+2 <= k; p += 2 {
			q0 := quantizeVal(row[p], inv, zp)
			q1 := quantizeVal(row[p+1], inv, zp)
			drow[p], drow[p+1] = q0, q1
			u0 := uint64(uint8(q0) ^ 0x80)
			u1 := uint64(uint8(q1) ^ 0x80)
			r += int32(u0) + int32(u1)
			lrow[p>>1] = u0 | u1<<32
		}
		if p < k {
			q0 := quantizeVal(row[p], inv, zp)
			drow[p] = q0
			u0 := uint64(uint8(q0) ^ 0x80)
			r += int32(u0)
			lrow[p>>1] = u0
		}
		q.rsum[i] = 128 * r
	}
}

// packRHS builds the packed-RHS form from q's int8 data, viewed as a
// [k,n] matrix: columns are grouped into panels of 4, and within a
// panel each k-pair becomes one uint64 word with the lanes REVERSED
// relative to the LHS (low lane = odd k-step, high = even), so that a
// single 64-bit multiply of an LHS word by an RHS word accumulates
// both pair products into bits 32..63. Also collects per-column signed
// sums for the zero-point correction. Cold path: called once per
// weight matrix at plan-compile time.
func packRHS(q *QTensor) {
	if q.rank() != 2 {
		panic(fmt.Sprintf("tensor: PackRHS needs a rank-2 tensor, got %v", q.shape))
	}
	k, n := q.shape[0], q.shape[1]
	kw := kwords(k)
	np := (n + 3) / 4
	need := np * kw * 4
	if cap(q.rhs) >= need {
		q.rhs = q.rhs[:need]
	} else {
		q.rhs = make([]uint64, need)
	}
	if cap(q.csum) >= n {
		q.csum = q.csum[:n]
	} else {
		q.csum = make([]int32, n)
	}
	for j := 0; j < n; j++ {
		var c int32
		for p := 0; p < k; p++ {
			c += int32(q.data[p*n+j])
		}
		q.csum[j] = c
	}
	for jp := 0; jp < np; jp++ {
		for w := 0; w < kw; w++ {
			for jj := 0; jj < 4; jj++ {
				j := jp*4 + jj
				var hi, lo uint64
				if j < n {
					hi = uint64(uint8(q.data[(2*w)*n+j]) ^ 0x80)
					if 2*w+1 < k {
						lo = uint64(uint8(q.data[(2*w+1)*n+j]) ^ 0x80)
					}
				}
				q.rhs[(jp*kw+w)*4+jj] = hi<<32 | lo
			}
		}
	}
}

// QMatMulInto computes acc = a·b over the packed int8 forms, leaving
// the raw int32 accumulators (zero-point-corrected signed dot
// products) in acc, row-major [m,n]. a must be LHS-packed [m,k] and b
// RHS-packed [k,n]; add bias with QAddBiasInto and map to float32 with
// DequantizeAccInto.
func QMatMulInto(acc []int32, a, b *QTensor) {
	if a.rank() != 2 || b.rank() != 2 {
		panic(fmt.Sprintf("tensor: QMatMulInto needs rank-2 operands, got %v x %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: QMatMulInto inner dims %d vs %d", k, b.shape[0]))
	}
	n := b.shape[1]
	if k > MaxQMatMulK {
		panic(fmt.Sprintf("tensor: QMatMulInto k=%d exceeds MaxQMatMulK=%d", k, MaxQMatMulK))
	}
	kw := kwords(k)
	if len(a.lhs) < m*kw || len(a.rsum) < m {
		panic("tensor: QMatMulInto left operand not LHS-packed")
	}
	if len(b.rhs) < (n+3)/4*kw*4 || len(b.csum) < n {
		panic("tensor: QMatMulInto right operand not RHS-packed")
	}
	if len(acc) < m*n {
		panic(fmt.Sprintf("tensor: QMatMulInto acc len %d < %d", len(acc), m*n))
	}
	qMatMulPacked(acc, a.lhs, a.rsum, b.rhs, b.csum, m, k, n)
}

// qMatMulPacked is the packed int8 GEMM core. Each uint64 multiply of
// an LHS pair-word by a pair-reversed RHS word lands the sum of both
// pair products in bits 32..63; accumulating the words keeps the
// running unsigned dot product there (MaxQMatMulK guarantees the low
// lane never carries in). Four column accumulators per row with a 4-way
// k-unroll keep everything in registers, and the single three-index
// subslice per unrolled block eliminates the inner bounds checks.
func qMatMulPacked(acc []int32, ap []uint64, rsum []int32, panels []uint64, csum []int32, m, k, n int) {
	kw := kwords(k)
	np := (n + 3) / 4
	for jp := 0; jp < np; jp++ {
		pp := panels[jp*kw*4 : (jp+1)*kw*4 : (jp+1)*kw*4]
		j := jp * 4
		for i := 0; i < m; i++ {
			a0 := ap[i*kw : (i+1)*kw : (i+1)*kw]
			var p0, p1, p2, p3 uint64
			w := 0
			for ; w+4 <= kw; w += 4 {
				x0 := a0[w]
				x1 := a0[w+1]
				x2 := a0[w+2]
				x3 := a0[w+3]
				bi := 4 * w
				b := pp[bi : bi+16 : bi+16]
				p0 += x0*b[0] + x1*b[4] + x2*b[8] + x3*b[12]
				p1 += x0*b[1] + x1*b[5] + x2*b[9] + x3*b[13]
				p2 += x0*b[2] + x1*b[6] + x2*b[10] + x3*b[14]
				p3 += x0*b[3] + x1*b[7] + x2*b[11] + x3*b[15]
			}
			for ; w < kw; w++ {
				x0 := a0[w]
				bi := 4 * w
				b := pp[bi : bi+4 : bi+4]
				p0 += x0 * b[0]
				p1 += x0 * b[1]
				p2 += x0 * b[2]
				p3 += x0 * b[3]
			}
			store4q(acc[i*n:], j, n, p0, p1, p2, p3, rsum[i], csum)
		}
	}
}

// store4q extracts the middle lanes of four column accumulators and
// applies the unsigned→signed correction: with u = q+128 on both
// sides, Σ qa·qb = Σ ua·ub − 128·Σua − 128·Σub − 128²·k, and the last
// two terms fold into csum (which is Σ qb = Σ ub − 128k). Panel-tail
// columns past n are computed but never stored.
func store4q(acc []int32, j, n int, w0, w1, w2, w3 uint64, rc int32, csum []int32) {
	if j >= n {
		return
	}
	acc[j] = int32(uint32(w0>>32)) - rc - 128*csum[j]
	if j+1 < n {
		acc[j+1] = int32(uint32(w1>>32)) - rc - 128*csum[j+1]
	}
	if j+2 < n {
		acc[j+2] = int32(uint32(w2>>32)) - rc - 128*csum[j+2]
	}
	if j+3 < n {
		acc[j+3] = int32(uint32(w3>>32)) - rc - 128*csum[j+3]
	}
}

// QAddBiasInto adds a precomputed int32 bias vector to every row of a
// row-major [rows, cols] accumulator block. The bias folds both the
// real layer bias (in accumulator units) and the activation zero-point
// correction −zp·Σw per column (model.QuantizePlan builds it).
func QAddBiasInto(acc []int32, bias []int32, rows, cols int) {
	if len(bias) < cols || len(acc) < rows*cols {
		panic(fmt.Sprintf("tensor: QAddBiasInto acc %d bias %d for %dx%d", len(acc), len(bias), rows, cols))
	}
	for i := 0; i < rows; i++ {
		row := acc[i*cols : i*cols+cols]
		for j, b := range bias[:cols] {
			row[j] += b
		}
	}
}

// DequantizeAccInto maps int32 accumulators to float32 with one
// per-column multiplier (inputScale · weightScale[col]), row-major
// [rows, cols].
func DequantizeAccInto(dst []float32, acc []int32, mult []float32, rows, cols int) {
	if len(dst) < rows*cols || len(acc) < rows*cols || len(mult) < cols {
		panic(fmt.Sprintf("tensor: DequantizeAccInto dst %d acc %d mult %d for %dx%d", len(dst), len(acc), len(mult), rows, cols))
	}
	for i := 0; i < rows; i++ {
		d := dst[i*cols : i*cols+cols]
		a := acc[i*cols : i*cols+cols]
		for j := range d {
			d[j] = float32(a[j]) * mult[j]
		}
	}
}

// DequantizeAccTInto maps the im2col GEMM's patch-major accumulators
// [nImg][patches, oc] to channel-major NCHW float32 output
// [nImg, oc, patches], applying the per-channel multipliers.
func DequantizeAccTInto(dst []float32, acc []int32, mult []float32, nImg, patches, oc int) {
	if len(dst) < nImg*patches*oc || len(acc) < nImg*patches*oc || len(mult) < oc {
		panic(fmt.Sprintf("tensor: DequantizeAccTInto dst %d acc %d mult %d for %dx%dx%d", len(dst), len(acc), len(mult), nImg, patches, oc))
	}
	for img := 0; img < nImg; img++ {
		a := acc[img*patches*oc : (img+1)*patches*oc]
		d := dst[img*patches*oc : (img+1)*patches*oc]
		for c := 0; c < oc; c++ {
			mc := mult[c]
			out := d[c*patches : c*patches+patches]
			for p := range out {
				out[p] = float32(a[p*oc+c]) * mc
			}
		}
	}
}

// im2colQ lowers one quantized image [c,h,w] directly into the
// packed-LHS form of the patch matrix [oh·ow, c·kh·kw]: each output
// position's receptive field becomes one packed row (k-pairs of
// unsigned values, out-of-bounds taps filled with the zero point,
// which dequantizes to 0) and rsum collects the row corrections. This
// fuses quantized im2col and LHS packing into a single pass so the
// int8 patch matrix never materializes.
func im2colQ(lhs []uint64, rsum []int32, img []int8, zp int8, c, h, w, kh, kw, oh, ow, stride, pad int) {
	kt := c * kh * kw
	kwrd := kwords(kt)
	uzp := uint64(uint8(zp) ^ 0x80)
	patch := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := lhs[patch*kwrd : patch*kwrd+kwrd]
			iy0 := oy*stride - pad
			ix0 := ox*stride - pad
			var r int32
			var word uint64
			p := 0
			for ch := 0; ch < c; ch++ {
				plane := img[ch*h*w : (ch+1)*h*w]
				for ky := 0; ky < kh; ky++ {
					iy := iy0 + ky
					for kx := 0; kx < kw; kx++ {
						u := uzp
						if iy >= 0 && iy < h {
							ix := ix0 + kx
							if ix >= 0 && ix < w {
								u = uint64(uint8(plane[iy*w+ix]) ^ 0x80)
							}
						}
						r += int32(u)
						if p&1 == 0 {
							word = u
						} else {
							row[p>>1] = word | u<<32
						}
						p++
					}
				}
			}
			if p&1 == 1 {
				row[p>>1] = word
			}
			rsum[patch] = 128 * r
			patch++
		}
	}
}

// QConv2DInto runs a quantized 2D convolution as im2col + packed int8
// GEMM. in is NCHW [n,c,h,w] with per-tensor parameters; weights must
// come from QuantizeConvWeights (RHS-packed [c·kh·kw, oc]); kh/kw are
// the original kernel window (the packed layout erases them). Raw
// int32 accumulators land patch-major in acc as [n][oh·ow, oc] — add
// bias with QAddBiasInto over n·oh·ow rows and transpose out with
// DequantizeAccTInto. lhs and rsum are caller scratch for one image's
// packed patch matrix (lens oh·ow·⌈k/2⌉ and oh·ow; arena GetU64 /
// GetAcc).
func QConv2DInto(acc []int32, in, weights *QTensor, kh, kw, stride, pad int, lhs []uint64, rsum []int32) {
	if in.rank() != 4 || weights.rank() != 2 {
		panic(fmt.Sprintf("tensor: QConv2DInto needs NCHW input and packed [k,oc] weights, got %v x %v", in.shape, weights.shape))
	}
	n, c, h, w := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	kt, oc := weights.shape[0], weights.shape[1]
	if kt != c*kh*kw {
		panic(fmt.Sprintf("tensor: QConv2DInto weight depth %d vs %d channels x %dx%d window", kt, c, kh, kw))
	}
	if kt > MaxQMatMulK {
		panic(fmt.Sprintf("tensor: QConv2DInto k=%d exceeds MaxQMatMulK=%d", kt, MaxQMatMulK))
	}
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	patches := oh * ow
	kwrd := kwords(kt)
	if len(lhs) < patches*kwrd || len(rsum) < patches {
		panic(fmt.Sprintf("tensor: QConv2DInto scratch lhs %d rsum %d for %d patches x %d words", len(lhs), len(rsum), patches, kwrd))
	}
	if len(acc) < n*patches*oc {
		panic(fmt.Sprintf("tensor: QConv2DInto acc len %d < %d", len(acc), n*patches*oc))
	}
	if len(weights.rhs) < (oc+3)/4*kwrd*4 || len(weights.csum) < oc {
		panic("tensor: QConv2DInto weights not RHS-packed (QuantizeConvWeights)")
	}
	zp := int8(in.zps[0])
	for img := 0; img < n; img++ {
		im2colQ(lhs, rsum, in.data[img*c*h*w:(img+1)*c*h*w], zp, c, h, w, kh, kw, oh, ow, stride, pad)
		qMatMulPacked(acc[img*patches*oc:], lhs, rsum, weights.rhs, weights.csum, patches, kt, oc)
	}
}

// QuantizeDenseWeights quantizes a [k,n] float32 weight matrix with
// symmetric per-column scales (each column is one output feature) and
// builds the RHS-packed form. Cold path: runs once at plan compile.
func QuantizeDenseWeights(w *Tensor) *QTensor {
	if w.Rank() != 2 {
		panic(fmt.Sprintf("tensor: QuantizeDenseWeights needs [k,n], got %v", w.Shape()))
	}
	k, n := w.Dim(0), w.Dim(1)
	wd := w.Data()
	q := newQ(k, n)
	q.scales = make([]float32, n)
	q.zps = make([]int32, n)
	q.axis = 1
	for j := 0; j < n; j++ {
		var maxAbs float32
		for p := 0; p < k; p++ {
			v := wd[p*n+j]
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		s := symmetricScale(maxAbs)
		q.scales[j] = s
		inv := 1 / s
		for p := 0; p < k; p++ {
			q.data[p*n+j] = quantizeVal(wd[p*n+j], inv, 0)
		}
	}
	packRHS(q)
	return q
}

// QuantizeConvWeights quantizes an [oc,ic,kh,kw] float32 convolution
// kernel with symmetric per-output-channel scales, laid out transposed
// as [ic·kh·kw, oc] to match im2colQ's patch rows, and builds the
// RHS-packed form. Cold path: runs once at plan compile.
func QuantizeConvWeights(w *Tensor) *QTensor {
	if w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: QuantizeConvWeights needs [oc,ic,kh,kw], got %v", w.Shape()))
	}
	oc, ic, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	kt := ic * kh * kw
	wd := w.Data()
	q := newQ(kt, oc)
	q.scales = make([]float32, oc)
	q.zps = make([]int32, oc)
	q.axis = 1
	for j := 0; j < oc; j++ {
		var maxAbs float32
		for p := 0; p < kt; p++ {
			v := wd[j*kt+p]
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		s := symmetricScale(maxAbs)
		q.scales[j] = s
		inv := 1 / s
		for p := 0; p < kt; p++ {
			q.data[p*oc+j] = quantizeVal(wd[j*kt+p], inv, 0)
		}
	}
	packRHS(q)
	return q
}
