package tensor

import (
	"fmt"
	"sync"
)

// Winograd F(2×2, 3×3) convolution: the fast-kernel path the simulated GPU
// device uses for 3×3 stride-1 convolutions. The algorithm computes each
// 2×2 output tile with 16 multiplies instead of direct convolution's 36 —
// a real 2.25× reduction in multiply work, the same trick cuDNN's Winograd
// kernels use. Transform matrices:
//
//	Bᵀ = ⎡1  0 -1  0⎤   G = ⎡ 1    0    0 ⎤   Aᵀ = ⎡1 1  1  0⎤
//	     ⎢0  1  1  0⎥       ⎢ ½    ½    ½ ⎥        ⎣0 1 -1 -1⎦
//	     ⎢0 -1  1  0⎥       ⎢ ½   -½    ½ ⎥
//	     ⎣0  1  0 -1⎦       ⎣ 0    0    1 ⎦

// WinogradConv is a 3×3 stride-1 convolution with pre-transformed weights.
// Transforming the kernel once at construction amortises the weight
// transform across calls, as inference runtimes do when loading a model.
// Scratch buffers are pooled across calls; a WinogradConv is safe for
// concurrent use.
type WinogradConv struct {
	oc, ic int
	// u holds the transformed kernels: 16 matrices of shape oc×ic,
	// one per position of the 4×4 Winograd domain.
	u [16][]float32

	scratch sync.Pool // *WinoScratch
}

// WinoScratch holds the V and M Winograd-domain buffers for one Apply
// call at a given tile count. Execution plans pre-size one per conv
// layer so the steady-state path never touches the allocator; Apply
// without caller scratch falls back to an internal pool.
type WinoScratch struct {
	tiles int
	v     []float32
	m     []float32
}

// NewScratch sizes a scratch for stride-1 inputs of the given
// height/width at the given padding. The returned scratch is tied to
// this convolution's channel counts.
func (w *WinogradConv) NewScratch(h, wd, pad int) *WinoScratch {
	oh := h + 2*pad - 2
	ow := wd + 2*pad - 2
	tiles := ((oh + 1) / 2) * ((ow + 1) / 2)
	return &WinoScratch{
		tiles: tiles,
		v:     make([]float32, 16*w.ic*tiles),
		m:     make([]float32, 16*w.oc*tiles),
	}
}

// NewWinogradConv pre-transforms an OIHW kernel. The kernel must be 3×3.
func NewWinogradConv(kernel *Tensor) (*WinogradConv, error) {
	if kernel.Rank() != 4 || kernel.Dim(2) != 3 || kernel.Dim(3) != 3 {
		return nil, fmt.Errorf("tensor: Winograd requires a 3×3 OIHW kernel, got %v", kernel.Shape())
	}
	oc, ic := kernel.Dim(0), kernel.Dim(1)
	w := &WinogradConv{oc: oc, ic: ic}
	for xi := range w.u {
		w.u[xi] = make([]float32, oc*ic)
	}
	kd := kernel.Data()
	var g [9]float32
	var u [16]float32
	for o := 0; o < oc; o++ {
		for i := 0; i < ic; i++ {
			copy(g[:], kd[(o*ic+i)*9:(o*ic+i)*9+9])
			transformKernel(&g, &u)
			for xi := 0; xi < 16; xi++ {
				w.u[xi][o*ic+i] = u[xi]
			}
		}
	}
	return w, nil
}

// transformKernel computes U = G g Gᵀ for one 3×3 filter.
func transformKernel(g *[9]float32, u *[16]float32) {
	// t = G g (4×3)
	var t [12]float32
	for c := 0; c < 3; c++ {
		g0, g1, g2 := g[c], g[3+c], g[6+c]
		t[c] = g0
		t[3+c] = 0.5 * (g0 + g1 + g2)
		t[6+c] = 0.5 * (g0 - g1 + g2)
		t[9+c] = g2
	}
	// u = t Gᵀ (4×4)
	for r := 0; r < 4; r++ {
		t0, t1, t2 := t[3*r], t[3*r+1], t[3*r+2]
		u[4*r] = t0
		u[4*r+1] = 0.5 * (t0 + t1 + t2)
		u[4*r+2] = 0.5 * (t0 - t1 + t2)
		u[4*r+3] = t2
	}
}

// transformInput computes V = Bᵀ d B for one 4×4 input tile, in place.
func transformInput(d *[16]float32) {
	// t = Bᵀ d
	var t [16]float32
	for c := 0; c < 4; c++ {
		d0, d1, d2, d3 := d[c], d[4+c], d[8+c], d[12+c]
		t[c] = d0 - d2
		t[4+c] = d1 + d2
		t[8+c] = d2 - d1
		t[12+c] = d1 - d3
	}
	// d = t B
	for r := 0; r < 4; r++ {
		t0, t1, t2, t3 := t[4*r], t[4*r+1], t[4*r+2], t[4*r+3]
		d[4*r] = t0 - t2
		d[4*r+1] = t1 + t2
		d[4*r+2] = t2 - t1
		d[4*r+3] = t1 - t3
	}
}

// inverseTransform computes Y = Aᵀ m A for one 4×4 Winograd-domain tile,
// producing the 2×2 output tile.
func inverseTransform(m *[16]float32, y *[4]float32) {
	// t = Aᵀ m (2×4)
	var t [8]float32
	for c := 0; c < 4; c++ {
		m0, m1, m2, m3 := m[c], m[4+c], m[8+c], m[12+c]
		t[c] = m0 + m1 + m2
		t[4+c] = m1 - m2 - m3
	}
	// y = t A (2×2)
	for r := 0; r < 2; r++ {
		t0, t1, t2, t3 := t[4*r], t[4*r+1], t[4*r+2], t[4*r+3]
		y[2*r] = t0 + t1 + t2
		y[2*r+1] = t1 - t2 - t3
	}
}

// Apply convolves an NCHW input with the pre-transformed kernel at
// stride 1 with the given padding.
func (w *WinogradConv) Apply(in *Tensor, pad int) (*Tensor, error) {
	if in.Rank() != 4 {
		return nil, fmt.Errorf("tensor: Winograd requires NCHW input, got %v", in.Shape())
	}
	n, c, h, wd := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	if c != w.ic {
		return nil, fmt.Errorf("tensor: Winograd channel mismatch: input %d, kernel %d", c, w.ic)
	}
	oh := h + 2*pad - 2
	ow := wd + 2*pad - 2
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("tensor: Winograd output would be empty for input %v", in.Shape())
	}
	tiles := ((oh + 1) / 2) * ((ow + 1) / 2)

	out := New(n, w.oc, oh, ow)
	// Scratch: V (16 × ic × tiles) and M (16 × oc × tiles), pooled
	// across calls.
	sc, _ := w.scratch.Get().(*WinoScratch)
	if sc == nil || sc.tiles != tiles {
		sc = &WinoScratch{
			tiles: tiles,
			v:     make([]float32, 16*w.ic*tiles),
			m:     make([]float32, 16*w.oc*tiles),
		}
	}
	defer w.scratch.Put(sc)
	w.ApplyInto(out, in, pad, sc)
	return out, nil
}

// ApplyInto convolves an NCHW input into an already-shaped dst using
// caller-owned scratch (see NewScratch). It allocates nothing and
// panics on shape or scratch mismatch (plan-compile-validated hot
// kernel).
func (w *WinogradConv) ApplyInto(dst, in *Tensor, pad int, sc *WinoScratch) {
	n, c, h, wd := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	if c != w.ic {
		panic(fmt.Sprintf("tensor: Winograd channel mismatch: input %d, kernel %d", c, w.ic))
	}
	oh := h + 2*pad - 2
	ow := wd + 2*pad - 2
	th := (oh + 1) / 2
	tw := (ow + 1) / 2
	tiles := th * tw
	if sc.tiles != tiles || len(sc.v) < 16*w.ic*tiles || len(sc.m) < 16*w.oc*tiles {
		panic(fmt.Sprintf("tensor: Winograd scratch sized for %d tiles, need %d", sc.tiles, tiles))
	}
	if dst.shape[0] != n || dst.shape[1] != w.oc || dst.shape[2] != oh || dst.shape[3] != ow {
		panic(fmt.Sprintf("tensor: Winograd dst shape %v, want [%d %d %d %d]", dst.shape, n, w.oc, oh, ow))
	}
	out := dst
	v, mbuf := sc.v, sc.m

	for img := 0; img < n; img++ {
		imgData := in.data[img*c*h*wd:]
		// Input transform.
		var d [16]float32
		for ch := 0; ch < c; ch++ {
			chData := imgData[ch*h*wd : (ch+1)*h*wd]
			ti := 0
			for ty := 0; ty < th; ty++ {
				iy0 := 2*ty - pad
				interiorRows := iy0 >= 0 && iy0+4 <= h
				for tx := 0; tx < tw; tx++ {
					ix0 := 2*tx - pad
					if interiorRows && ix0 >= 0 && ix0+4 <= wd {
						// Interior tile: contiguous row loads,
						// no bounds checks.
						base := iy0*wd + ix0
						r0 := chData[base : base+4 : base+4]
						r1 := chData[base+wd : base+wd+4 : base+wd+4]
						r2 := chData[base+2*wd : base+2*wd+4 : base+2*wd+4]
						r3 := chData[base+3*wd : base+3*wd+4 : base+3*wd+4]
						d[0], d[1], d[2], d[3] = r0[0], r0[1], r0[2], r0[3]
						d[4], d[5], d[6], d[7] = r1[0], r1[1], r1[2], r1[3]
						d[8], d[9], d[10], d[11] = r2[0], r2[1], r2[2], r2[3]
						d[12], d[13], d[14], d[15] = r3[0], r3[1], r3[2], r3[3]
					} else {
						for r := 0; r < 4; r++ {
							iy := iy0 + r
							if iy < 0 || iy >= h {
								d[4*r], d[4*r+1], d[4*r+2], d[4*r+3] = 0, 0, 0, 0
								continue
							}
							row := chData[iy*wd:]
							for cc := 0; cc < 4; cc++ {
								ix := ix0 + cc
								if ix < 0 || ix >= wd {
									d[4*r+cc] = 0
								} else {
									d[4*r+cc] = row[ix]
								}
							}
						}
					}
					transformInput(&d)
					base := ch*tiles + ti
					stride := w.ic * tiles
					for xi := 0; xi < 16; xi++ {
						v[xi*stride+base] = d[xi]
					}
					ti++
				}
			}
		}
		// Batched element-wise stage: 16 GEMMs of oc×ic by ic×tiles.
		for xi := 0; xi < 16; xi++ {
			mslice := mbuf[xi*w.oc*tiles : (xi+1)*w.oc*tiles]
			for i := range mslice {
				mslice[i] = 0
			}
			matMulRange(mslice, w.u[xi], v[xi*w.ic*tiles:(xi+1)*w.ic*tiles], 0, w.oc, w.ic, tiles)
		}
		// Inverse transform into the output.
		var m [16]float32
		var y [4]float32
		for oc := 0; oc < w.oc; oc++ {
			dst := out.data[(img*w.oc+oc)*oh*ow:]
			ti := 0
			for ty := 0; ty < th; ty++ {
				for tx := 0; tx < tw; tx++ {
					for xi := 0; xi < 16; xi++ {
						m[xi] = mbuf[(xi*w.oc+oc)*tiles+ti]
					}
					inverseTransform(&m, &y)
					oy, ox := 2*ty, 2*tx
					dst[oy*ow+ox] = y[0]
					if ox+1 < ow {
						dst[oy*ow+ox+1] = y[1]
					}
					if oy+1 < oh {
						dst[(oy+1)*ow+ox] = y[2]
						if ox+1 < ow {
							dst[(oy+1)*ow+ox+1] = y[3]
						}
					}
					ti++
				}
			}
		}
	}
}
