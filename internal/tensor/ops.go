package tensor

import (
	"fmt"
	"math"
)

// matMulBlock is the cache-blocking tile edge used by MatMul.
const matMulBlock = 64

// MatMul computes C = A × B for 2-D tensors A (m×k) and B (k×n) into a new
// m×n tensor using i-k-j loop ordering with cache blocking.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("tensor: MatMul requires rank-2 operands, got %v × %v", a.shape, b.shape)
	}
	if a.shape[1] != b.shape[0] {
		return nil, fmt.Errorf("tensor: MatMul shape mismatch %v × %v", a.shape, b.shape)
	}
	c := New(a.shape[0], b.shape[1])
	MatMulInto(c, a, b)
	return c, nil
}

// MatMulInto computes dst = A × B, reusing dst's storage. dst must already
// have shape m×n. It panics on shape mismatch; it is the hot inner kernel
// and callers are expected to have validated shapes.
func MatMulInto(dst, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch %v × %v -> %v", a.shape, b.shape, dst.shape))
	}
	ad, bd, cd := a.data, b.data, dst.data
	for i := range cd {
		cd[i] = 0
	}
	matMulRange(cd, ad, bd, 0, m, k, n)
}

// matMulRange computes rows [i0,i1) of C += A×B with blocking over k.
// Each pass over a C row takes four k-steps, so an element of C is
// loaded and stored once per four products. Every element still adds
// its products in ascending k, one rounding at a time, so the result is
// bit-identical to a naive dot product summed from C's starting value.
func matMulRange(cd, ad, bd []float32, i0, i1, k, n int) {
	for kk := 0; kk < k; kk += matMulBlock {
		kmax := min(kk+matMulBlock, k)
		for i := i0; i < i1; i++ {
			arow := ad[i*k : (i+1)*k]
			crow := cd[i*n : (i+1)*n]
			// No zero-skip: kernel cost must be data-independent so
			// benchmark timings do not vary with activation sparsity.
			p := kk
			for ; p+4 <= kmax; p += 4 {
				a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
				b0 := bd[p*n : (p+1)*n]
				b1, b2, b3 := bd[(p+1)*n:][:len(b0)], bd[(p+2)*n:][:len(b0)], bd[(p+3)*n:][:len(b0)]
				c := crow[:len(b0)]
				for j := range c {
					v := c[j]
					v += a0 * b0[j]
					v += a1 * b1[j]
					v += a2 * b2[j]
					v += a3 * b3[j]
					c[j] = v
				}
			}
			for ; p < kmax; p++ {
				av := arow[p]
				brow := bd[p*n : (p+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
}

// AddBias adds a length-n bias vector to every row of an m×n tensor in
// place and returns the tensor.
func AddBias(t, bias *Tensor) (*Tensor, error) {
	if t.Rank() != 2 || bias.Rank() != 1 || bias.shape[0] != t.shape[1] {
		return nil, fmt.Errorf("tensor: AddBias shape mismatch %v + %v", t.shape, bias.shape)
	}
	AddBiasInto(t, t, bias)
	return t, nil
}

// AddBiasInto computes dst = t + bias broadcast over rows. dst may alias
// t. Like MatMulInto it panics on shape mismatch: it is a hot kernel and
// callers (execution plans) validate shapes at compile time.
func AddBiasInto(dst, t, bias *Tensor) {
	if dst.shape[0] != t.shape[0] || dst.shape[1] != t.shape[1] || bias.shape[0] != t.shape[1] {
		panic(fmt.Sprintf("tensor: AddBiasInto shape mismatch %v + %v -> %v", t.shape, bias.shape, dst.shape))
	}
	n := t.shape[1]
	for i := 0; i < t.shape[0]; i++ {
		src := t.data[i*n : (i+1)*n]
		row := dst.data[i*n : (i+1)*n]
		for j := range row {
			row[j] = src[j] + bias.data[j]
		}
	}
}

// AddInPlace computes a += b and returns a.
func AddInPlace(a, b *Tensor) (*Tensor, error) {
	if !a.SameShape(b) {
		return nil, fmt.Errorf("tensor: AddInPlace shape mismatch %v + %v", a.shape, b.shape)
	}
	for i, v := range b.data {
		a.data[i] += v
	}
	return a, nil
}

// ReLU applies max(0, x) in place and returns the tensor.
func ReLU(t *Tensor) *Tensor {
	for i, v := range t.data {
		if v < 0 {
			t.data[i] = 0
		}
	}
	return t
}

// Softmax applies a numerically-stable softmax over the last dimension
// in place and returns it: every leading dimension indexes an
// independent row (rank-2 classifier logits, rank-3 attention score
// tiles alike).
func Softmax(t *Tensor) (*Tensor, error) {
	if t.Rank() < 1 {
		return nil, fmt.Errorf("tensor: Softmax requires rank >= 1, got %v", t.shape)
	}
	SoftmaxInto(t, t)
	return t, nil
}

// SoftmaxInto computes the numerically-stable softmax of src over its
// last dimension into dst; every leading dimension indexes an
// independent row. dst may alias src (the in-place hot path). It
// panics on shape mismatch.
func SoftmaxInto(dst, src *Tensor) {
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("tensor: SoftmaxInto shape mismatch %v -> %v", src.shape, dst.shape))
	}
	if src.Rank() < 1 {
		panic(fmt.Sprintf("tensor: SoftmaxInto requires rank >= 1, got %v", src.shape))
	}
	n := src.shape[src.Rank()-1]
	if n == 0 {
		return
	}
	softmaxRows(dst.data, src.data, len(src.data)/n, n)
}

// softmaxRows is the shared softmax row loop (SoftmaxInto and the
// reference attention kernel): max-subtract, exponentiate with a
// float64 running sum, normalise.
func softmaxRows(dst, src []float32, rows, n int) {
	for i := 0; i < rows; i++ {
		in := src[i*n : (i+1)*n]
		row := dst[i*n : (i+1)*n]
		max := float32(math.Inf(-1))
		for _, v := range in {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range in {
			e := float32(math.Exp(float64(v - max)))
			row[j] = e
			sum += float64(e)
		}
		inv := float32(1 / sum)
		for j := range row {
			row[j] *= inv
		}
	}
}

// BatchNorm applies per-channel inference-mode batch normalisation to an
// NCHW tensor in place: y = gamma*(x-mean)/sqrt(var+eps) + beta.
func BatchNorm(t, gamma, beta, mean, variance *Tensor, eps float32) (*Tensor, error) {
	if t.Rank() != 4 {
		return nil, fmt.Errorf("tensor: BatchNorm requires NCHW rank 4, got %v", t.shape)
	}
	c := t.shape[1]
	if gamma.Len() != c || beta.Len() != c || mean.Len() != c || variance.Len() != c {
		return nil, fmt.Errorf("tensor: BatchNorm channel mismatch: %d channels", c)
	}
	hw := t.shape[2] * t.shape[3]
	for n := 0; n < t.shape[0]; n++ {
		for ch := 0; ch < c; ch++ {
			scale := gamma.data[ch] / float32(math.Sqrt(float64(variance.data[ch]+eps)))
			shift := beta.data[ch] - mean.data[ch]*scale
			base := (n*c + ch) * hw
			seg := t.data[base : base+hw]
			for i := range seg {
				seg[i] = seg[i]*scale + shift
			}
		}
	}
	return t, nil
}

// Conv2D performs a 2-D convolution on an NCHW input with an OIHW kernel
// using im2col + the cache-blocked MatMul. Output spatial size is the
// usual (H + 2*pad - kh)/stride + 1.
func Conv2D(in, kernel *Tensor, stride, pad int) (*Tensor, error) {
	return conv2D(in, kernel, stride, pad, nil)
}

// Conv2DReference is the single-thread reference convolution: im2col plus
// a textbook i-j-p GEMM with no cache blocking. It is the CPU-device
// kernel, mirroring the paper's deliberately unoptimised CPU inference
// configuration (§4.3 pins inter- and intra-operator parallelism to one
// thread); accelerator devices use the optimised kernel library instead
// (blocked GEMM, Winograd, folded batch norms).
func Conv2DReference(in, kernel *Tensor, stride, pad int) (*Tensor, error) {
	return conv2D(in, kernel, stride, pad, referenceMatMul)
}

type matMulFn func(cd, ad, bd []float32, m, k, n int)

func conv2D(in, kernel *Tensor, stride, pad int, mm matMulFn) (*Tensor, error) {
	if err := conv2DCheck(in, kernel, stride, pad); err != nil {
		return nil, err
	}
	oh, ow := Conv2DOutDims(in, kernel, stride, pad)
	col := make([]float32, Conv2DScratchLen(in, kernel, stride, pad))
	out := New(in.shape[0], kernel.shape[0], oh, ow)
	conv2DInto(out, in, kernel, stride, pad, col, mm)
	return out, nil
}

// conv2DCheck validates an NCHW input / OIHW kernel pair for conv2D.
func conv2DCheck(in, kernel *Tensor, stride, pad int) error {
	if in.Rank() != 4 || kernel.Rank() != 4 {
		return fmt.Errorf("tensor: Conv2D requires NCHW input and OIHW kernel, got %v, %v", in.shape, kernel.shape)
	}
	if kernel.shape[1] != in.shape[1] {
		return fmt.Errorf("tensor: Conv2D channel mismatch: input %d, kernel %d", in.shape[1], kernel.shape[1])
	}
	if stride <= 0 {
		return fmt.Errorf("tensor: Conv2D stride must be positive, got %d", stride)
	}
	oh, ow := Conv2DOutDims(in, kernel, stride, pad)
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("tensor: Conv2D output would be empty for input %v kernel %v", in.shape, kernel.shape)
	}
	return nil
}

// Conv2DOutDims returns the output spatial dimensions of a convolution:
// (H + 2*pad - kh)/stride + 1 by the analogous width.
func Conv2DOutDims(in, kernel *Tensor, stride, pad int) (oh, ow int) {
	oh = (in.shape[2]+2*pad-kernel.shape[2])/stride + 1
	ow = (in.shape[3]+2*pad-kernel.shape[3])/stride + 1
	return oh, ow
}

// Conv2DScratchLen returns the im2col scratch length (in float32s) that
// Conv2DInto and friends need for the given convolution: the
// (c*kh*kw) × (oh*ow) patch matrix of one image. Execution plans size
// their arena scratch with it at compile time.
func Conv2DScratchLen(in, kernel *Tensor, stride, pad int) int {
	oh, ow := Conv2DOutDims(in, kernel, stride, pad)
	return in.shape[1] * kernel.shape[2] * kernel.shape[3] * oh * ow
}

// Conv2DInto computes the cache-blocked im2col convolution into dst,
// using the caller-provided im2col scratch buffer col (length at least
// Conv2DScratchLen). It allocates nothing: dst must already have shape
// [n, oc, oh, ow]. Like MatMulInto it panics on shape or scratch
// mismatch — callers validate at plan-compile time.
func Conv2DInto(dst, in, kernel *Tensor, stride, pad int, col []float32) {
	conv2DInto(dst, in, kernel, stride, pad, col, nil)
}

// Conv2DReferenceInto is Conv2DInto with the single-thread reference GEMM
// (the CPU device's deliberately unoptimised kernel, see Conv2DReference).
func Conv2DReferenceInto(dst, in, kernel *Tensor, stride, pad int, col []float32) {
	conv2DInto(dst, in, kernel, stride, pad, col, referenceMatMul)
}

// referenceMatMul is the textbook i-j-p GEMM used by Conv2DReference.
func referenceMatMul(cd, ad, bd []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			var s float32
			for p, av := range arow {
				s += av * bd[p*n+j]
			}
			cd[i*n+j] = s
		}
	}
}

// conv2DInto is the shared allocation-free convolution core. mm == nil
// selects the cache-blocked GEMM.
func conv2DInto(dst, in, kernel *Tensor, stride, pad int, col []float32, mm matMulFn) {
	n, c, h, w := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oc, _, kh, kw := kernel.shape[0], kernel.shape[1], kernel.shape[2], kernel.shape[3]
	oh, ow := Conv2DOutDims(in, kernel, stride, pad)
	colRows := c * kh * kw
	colCols := oh * ow
	if len(col) < colRows*colCols {
		panic(fmt.Sprintf("tensor: Conv2DInto scratch %d < %d", len(col), colRows*colCols))
	}
	if dst.shape[0] != n || dst.shape[1] != oc || dst.shape[2] != oh || dst.shape[3] != ow {
		panic(fmt.Sprintf("tensor: Conv2DInto dst shape %v, want [%d %d %d %d]", dst.shape, n, oc, oh, ow))
	}
	col = col[:colRows*colCols]
	kmat := kernel.data // oc × (ic*kh*kw), already contiguous in OIHW.

	for img := 0; img < n; img++ {
		im2col(in.data[img*c*h*w:(img+1)*c*h*w], col, c, h, w, kh, kw, oh, ow, stride, pad)
		out := dst.data[img*oc*colCols : (img+1)*oc*colCols]
		if mm != nil {
			mm(out, kmat, col, oc, colRows, colCols)
		} else {
			for i := range out {
				out[i] = 0
			}
			matMulRange(out, kmat, col, 0, oc, colRows, colCols)
		}
	}
}

// im2col expands one CHW image into the (c*kh*kw) × (oh*ow) patch matrix.
func im2col(img, col []float32, c, h, w, kh, kw, oh, ow, stride, pad int) {
	idx := 0
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							col[idx] = 0
							idx++
						}
						continue
					}
					rowBase := chBase + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride + kx - pad
						if ix < 0 || ix >= w {
							col[idx] = 0
						} else {
							col[idx] = img[rowBase+ix]
						}
						idx++
					}
				}
			}
		}
	}
}

// AddChannelBias adds a per-channel bias to an NCHW tensor in place.
func AddChannelBias(t, bias *Tensor) (*Tensor, error) {
	if t.Rank() != 4 || bias.Rank() != 1 || bias.shape[0] != t.shape[1] {
		return nil, fmt.Errorf("tensor: AddChannelBias shape mismatch %v + %v", t.shape, bias.shape)
	}
	hw := t.shape[2] * t.shape[3]
	c := t.shape[1]
	for n := 0; n < t.shape[0]; n++ {
		for ch := 0; ch < c; ch++ {
			b := bias.data[ch]
			base := (n*c + ch) * hw
			seg := t.data[base : base+hw]
			for i := range seg {
				seg[i] += b
			}
		}
	}
	return t, nil
}

// MaxPool2D applies kxk max pooling with the given stride to an NCHW tensor.
func MaxPool2D(in *Tensor, k, stride, pad int) (*Tensor, error) {
	if in.Rank() != 4 {
		return nil, fmt.Errorf("tensor: MaxPool2D requires NCHW, got %v", in.shape)
	}
	n, c, h, w := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oh := (h+2*pad-k)/stride + 1
	ow := (w+2*pad-k)/stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("tensor: MaxPool2D output would be empty for input %v k=%d", in.shape, k)
	}
	out := New(n, c, oh, ow)
	MaxPool2DInto(out, in, k, stride, pad)
	return out, nil
}

// MaxPool2DInto applies kxk max pooling into dst, which must already have
// the pooled NCHW shape. It allocates nothing and panics on shape
// mismatch (plan-compile-validated hot kernel).
func MaxPool2DInto(dst, in *Tensor, k, stride, pad int) {
	n, c, h, w := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oh := (h+2*pad-k)/stride + 1
	ow := (w+2*pad-k)/stride + 1
	if dst.shape[0] != n || dst.shape[1] != c || dst.shape[2] != oh || dst.shape[3] != ow {
		panic(fmt.Sprintf("tensor: MaxPool2DInto dst shape %v, want [%d %d %d %d]", dst.shape, n, c, oh, ow))
	}
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			src := in.data[(img*c+ch)*h*w:]
			out := dst.data[(img*c+ch)*oh*ow:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					for ky := 0; ky < k; ky++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= w {
								continue
							}
							if v := src[iy*w+ix]; v > best {
								best = v
							}
						}
					}
					out[oy*ow+ox] = best
				}
			}
		}
	}
}

// GlobalAvgPool2D averages each channel of an NCHW tensor to 1×1, returning
// an n×c rank-2 tensor.
func GlobalAvgPool2D(in *Tensor) (*Tensor, error) {
	if in.Rank() != 4 {
		return nil, fmt.Errorf("tensor: GlobalAvgPool2D requires NCHW, got %v", in.shape)
	}
	n, c := in.shape[0], in.shape[1]
	hw := in.shape[2] * in.shape[3]
	if hw == 0 {
		return nil, fmt.Errorf("tensor: GlobalAvgPool2D over empty spatial dims %v", in.shape)
	}
	out := New(n, c)
	GlobalAvgPool2DInto(out, in)
	return out, nil
}

// GlobalAvgPool2DInto averages each channel of an NCHW tensor into dst,
// an already-shaped n×c rank-2 tensor. It allocates nothing and panics
// on shape mismatch (plan-compile-validated hot kernel).
func GlobalAvgPool2DInto(dst, in *Tensor) {
	n, c := in.shape[0], in.shape[1]
	hw := in.shape[2] * in.shape[3]
	if dst.shape[0] != n || dst.shape[1] != c {
		panic(fmt.Sprintf("tensor: GlobalAvgPool2DInto dst shape %v, want [%d %d]", dst.shape, n, c))
	}
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			seg := in.data[(img*c+ch)*hw : (img*c+ch+1)*hw]
			var s float64
			for _, v := range seg {
				s += float64(v)
			}
			dst.data[img*c+ch] = float32(s / float64(hw))
		}
	}
}
