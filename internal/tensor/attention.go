package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Fused transformer kernels (docs/PERFORMANCE.md "Fused transformer
// kernels"): flash-style tiled attention that never materialises the
// S×S score matrix, a one-pass residual-add + layer norm, and the tanh
// GELU. Each fused kernel has an unfused reference twin — materialised
// scores with a textbook P×V product, a multi-pass layer norm, the erf
// GELU — mirroring how Conv2DReference models the paper's deliberately
// unoptimised CPU device while accelerator devices get the fast
// library.
//
// Attention input layout: activations arrive as [n, S, 3D] where every
// token row packs the query, key, and value projections back to back
// (q|k|v), the layout the preceding fused QKV dense layer produces.
// Head h of dh = D/heads lanes reads the contiguous dh-wide slices at
// offsets h*dh, D + h*dh, and 2D + h*dh of each row.

// attnKeyTile is the key-tile edge of the fused attention kernel:
// scores are computed attnKeyTile keys at a time into a per-lane
// scratch strip, folded into the online softmax, and discarded — the
// full S×S matrix never exists.
const attnKeyTile = 64

// attnQBlock is the query-block edge: the fused kernel walks up to
// attnQBlock query rows of one (point, head) through each key tile
// together, so every key and value line loaded from the packed
// activation is reused attnQBlock times. Per-row online-softmax state
// stays independent, so results are bit-identical at any block
// grouping — including the ragged blocks at worker-split boundaries.
const attnQBlock = 4

// attnCheck validates a packed [n, S, 3D] attention input against a
// head count and returns the geometry.
func attnCheck(src *Tensor, heads int) (n, s, d int, err error) {
	if src.Rank() != 3 {
		return 0, 0, 0, fmt.Errorf("tensor: Attention requires rank-3 [n, seq, 3*dim] input, got %v", src.shape)
	}
	n, s = src.shape[0], src.shape[1]
	w := src.shape[2]
	if w == 0 || w%3 != 0 {
		return 0, 0, 0, fmt.Errorf("tensor: Attention input width %d not divisible by 3 (rows pack q|k|v)", w)
	}
	d = w / 3
	if heads <= 0 || d%heads != 0 {
		return 0, 0, 0, fmt.Errorf("tensor: Attention with %d heads over model dim %d", heads, d)
	}
	return n, s, d, nil
}

// AttentionScratchLen returns the scratch length (in float32s) the
// fused attention kernels need for model dim d, the given head count,
// and up to workers concurrent lanes: each lane owns attnQBlock
// dh-float accumulators plus attnQBlock attnKeyTile-float score
// strips. Execution plans size their arena scratch with it at compile
// time.
func AttentionScratchLen(d, heads, workers int) int {
	if workers < 1 {
		workers = 1
	}
	return workers * attnQBlock * (d/heads + attnKeyTile)
}

// AttentionReferenceScratchLen returns the scratch length the unfused
// reference kernel needs for sequence length s: the full S×S score
// matrix of one (point, head) pair.
func AttentionReferenceScratchLen(s int) int { return s * s }

// Attention computes multi-head scaled dot-product self-attention over
// a packed [n, S, 3D] q|k|v input into a new [n, S, D] tensor, using
// the fused tiled kernel.
func Attention(src *Tensor, heads int) (*Tensor, error) {
	n, s, d, err := attnCheck(src, heads)
	if err != nil {
		return nil, err
	}
	dst := New(n, s, d)
	scratch := make([]float32, AttentionScratchLen(d, heads, 1))
	AttentionInto(dst, src, heads, scratch)
	return dst, nil
}

// AttentionReference is Attention with the unfused reference kernel:
// the S×S score matrix of each (point, head) is materialised in full,
// row-softmaxed, then multiplied against V with a textbook
// stride-hostile loop. It is the CPU-device kernel, matching the
// paper's one-thread unoptimised CPU inference setting.
func AttentionReference(src *Tensor, heads int) (*Tensor, error) {
	n, s, d, err := attnCheck(src, heads)
	if err != nil {
		return nil, err
	}
	dst := New(n, s, d)
	scratch := make([]float32, AttentionReferenceScratchLen(s))
	AttentionReferenceInto(dst, src, heads, scratch)
	return dst, nil
}

// AttentionInto computes fused multi-head self-attention into dst,
// which must already have shape [n, S, D] for a [n, S, 3D] src. The
// caller provides scratch of at least AttentionScratchLen(d, heads, 1)
// floats. It allocates nothing and panics on shape or scratch mismatch
// (plan-compile-validated hot kernel).
func AttentionInto(dst, src *Tensor, heads int, scratch []float32) {
	n, s, d := attnMustCheck(dst, src, heads)
	lane := attnQBlock * (d/heads + attnKeyTile)
	if len(scratch) < lane {
		panic(fmt.Sprintf("tensor: AttentionInto scratch %d < %d", len(scratch), lane))
	}
	attentionRows(dst.data, src.data, s, d, heads, 0, n*heads*s, scratch[:lane])
}

// AttentionPoolInto is AttentionInto with the (point, head, query-row)
// lanes fanned out over the resident work pool; chunk 0 runs on the
// calling goroutine and done joins. scratch must hold
// AttentionScratchLen(d, heads, workers) floats — each worker owns a
// disjoint lane strip. Every output row is produced whole by one
// attentionRows call, so results are bit-identical to the sequential
// fused kernel at any worker count.
func AttentionPoolInto(dst, src *Tensor, heads int, scratch []float32, workers int, pool *WorkPool, done *sync.WaitGroup) {
	n, s, d := attnMustCheck(dst, src, heads)
	lane := attnQBlock * (d/heads + attnKeyTile)
	rows := n * heads * s
	if pool != nil && workers > pool.n+1 {
		workers = pool.n + 1
	}
	if workers > rows {
		workers = rows
	}
	if workers < 1 {
		workers = 1
	}
	if len(scratch) < workers*lane {
		panic(fmt.Sprintf("tensor: AttentionPoolInto scratch %d < %d", len(scratch), workers*lane))
	}
	if pool == nil || workers <= 1 || rows < 2 {
		attentionRows(dst.data, src.data, s, d, heads, 0, rows, scratch[:lane])
		return
	}
	base, rem := rows/workers, rows%workers
	head := base
	if rem > 0 {
		head++
	}
	r0 := head
	for w := 1; w < workers; w++ {
		cnt := base
		if w < rem {
			cnt++
		}
		done.Add(1)
		pool.tasks <- mmTask{
			kind: taskAttention, cd: dst.data, ad: src.data,
			i0: r0, i1: r0 + cnt, k: s, n: d, heads: heads,
			scr: scratch[w*lane : (w+1)*lane], done: done,
		}
		r0 += cnt
	}
	attentionRows(dst.data, src.data, s, d, heads, 0, head, scratch[:lane])
	done.Wait()
}

// attnMustCheck is the panicking geometry check shared by the Into
// kernels.
func attnMustCheck(dst, src *Tensor, heads int) (n, s, d int) {
	n, s, d, err := attnCheck(src, heads)
	if err != nil {
		panic(err.Error())
	}
	if dst.Rank() != 3 || dst.shape[0] != n || dst.shape[1] != s || dst.shape[2] != d {
		panic(fmt.Sprintf("tensor: Attention dst shape %v, want [%d %d %d]", dst.shape, n, s, d))
	}
	return n, s, d
}

// attentionRows runs the fused kernel over rows [r0, r1) of the
// flattened (point, head, query-row) space: query rows of one (point,
// head) walk the key stream in blocks of up to attnQBlock, each block
// streaming keys in attnKeyTile-wide tiles while every row maintains
// its own online-softmax state (running max m, running denominator l,
// value accumulator acc), rescaled by exp(mOld-mNew) whenever a tile
// raises that row's max — the classic flash-attention recurrence,
// float32 values with a float64 denominator. Each key and value line
// loaded from the packed activation serves the whole query block. scr
// holds one lane: attnQBlock dh-float accumulators followed by
// attnQBlock attnKeyTile-float score strips.
func attentionRows(dd, sd []float32, s, d, heads, r0, r1 int, scr []float32) {
	dh := d / heads
	w3 := 3 * d
	scale := float32(1 / math.Sqrt(float64(dh)))
	for r := r0; r < r1; {
		p := r / (heads * s)
		rem := r - p*heads*s
		h := rem / s
		i := rem - h*s
		// Block as many consecutive query rows of this (point, head) as
		// remain in the range and the sequence.
		qb := attnQBlock
		if i+qb > s {
			qb = s - i
		}
		if r+qb > r1 {
			qb = r1 - r
		}
		if qb == attnQBlock {
			attentionBlock4(dd, sd, s, d, dh, w3, scale, p, h, i, scr)
		} else {
			for b := 0; b < qb; b++ {
				attentionRow1(dd, sd, s, d, dh, w3, scale, p, h, i+b, scr)
			}
		}
		r += qb
	}
}

// attentionBlock4 walks four query rows of one (point, head) through
// the key stream together: every key line feeds four independent dot
// chains and every value line feeds four FMA streams, so the packed
// activation is read once per block instead of once per row. Per-row
// state (m, l, acc strip, score strip) is scalar-held; each row's
// arithmetic runs in the exact order attentionRow1 uses, so a row
// computes bit-identical output whichever path a worker split lands it
// on.
func attentionBlock4(dd, sd []float32, s, d, dh, w3 int, scale float32, p, h, i int, scr []float32) {
	base := p * s * w3
	o := h * dh
	q0 := sd[base+i*w3+o : base+i*w3+o+dh]
	q1 := sd[base+(i+1)*w3+o : base+(i+1)*w3+o+dh]
	q2 := sd[base+(i+2)*w3+o : base+(i+2)*w3+o+dh]
	q3 := sd[base+(i+3)*w3+o : base+(i+3)*w3+o+dh]
	acc := scr[:4*dh]
	for x := range acc {
		acc[x] = 0
	}
	a0, a1 := acc[:dh], acc[dh:2*dh]
	a2, a3 := acc[2*dh:3*dh], acc[3*dh:4*dh]
	stBase := attnQBlock * dh
	st0 := scr[stBase : stBase+attnKeyTile]
	st1 := scr[stBase+attnKeyTile : stBase+2*attnKeyTile]
	st2 := scr[stBase+2*attnKeyTile : stBase+3*attnKeyTile]
	st3 := scr[stBase+3*attnKeyTile : stBase+4*attnKeyTile]
	ninf := float32(math.Inf(-1))
	m0, m1, m2, m3 := ninf, ninf, ninf, ninf
	var l0, l1, l2, l3 float64
	for j0 := 0; j0 < s; j0 += attnKeyTile {
		j1 := j0 + attnKeyTile
		if j1 > s {
			j1 = s
		}
		// Pass 1: one key load serves four score chains.
		for j := j0; j < j1; j++ {
			ko := base + j*w3 + d + o
			k := sd[ko : ko+dh]
			var s0, s1, s2, s3 float32
			for x, kv := range k {
				s0 += q0[x] * kv
				s1 += q1[x] * kv
				s2 += q2[x] * kv
				s3 += q3[x] * kv
			}
			st0[j-j0] = s0 * scale
			st1[j-j0] = s1 * scale
			st2[j-j0] = s2 * scale
			st3[j-j0] = s3 * scale
		}
		w := j1 - j0
		m0, l0 = rescaleTile(st0[:w], m0, l0, a0)
		m1, l1 = rescaleTile(st1[:w], m1, l1, a1)
		m2, l2 = rescaleTile(st2[:w], m2, l2, a2)
		m3, l3 = rescaleTile(st3[:w], m3, l3, a3)
		// Pass 2: one value load feeds four accumulator streams.
		for j := j0; j < j1; j++ {
			vo := base + j*w3 + 2*d + o
			v := sd[vo : vo+dh]
			e0 := fastExp(st0[j-j0] - m0)
			e1 := fastExp(st1[j-j0] - m1)
			e2 := fastExp(st2[j-j0] - m2)
			e3 := fastExp(st3[j-j0] - m3)
			l0 += float64(e0)
			l1 += float64(e1)
			l2 += float64(e2)
			l3 += float64(e3)
			for x, vv := range v {
				a0[x] += e0 * vv
				a1[x] += e1 * vv
				a2[x] += e2 * vv
				a3[x] += e3 * vv
			}
		}
	}
	writeAttnRow(dd, a0, l0, p, s, d, i, o)
	writeAttnRow(dd, a1, l1, p, s, d, i+1, o)
	writeAttnRow(dd, a2, l2, p, s, d, i+2, o)
	writeAttnRow(dd, a3, l3, p, s, d, i+3, o)
}

// attentionRow1 is the single-row fused kernel, used for the ragged
// blocks at sequence ends and worker-split boundaries. Its per-element
// order matches attentionBlock4 exactly.
func attentionRow1(dd, sd []float32, s, d, dh, w3 int, scale float32, p, h, i int, scr []float32) {
	base := p * s * w3
	o := h * dh
	q := sd[base+i*w3+o : base+i*w3+o+dh]
	acc := scr[:dh]
	for x := range acc {
		acc[x] = 0
	}
	st := scr[attnQBlock*dh : attnQBlock*dh+attnKeyTile]
	m := float32(math.Inf(-1))
	var l float64
	for j0 := 0; j0 < s; j0 += attnKeyTile {
		j1 := j0 + attnKeyTile
		if j1 > s {
			j1 = s
		}
		for j := j0; j < j1; j++ {
			ko := base + j*w3 + d + o
			k := sd[ko : ko+dh]
			var dot float32
			for x, kv := range k {
				dot += q[x] * kv
			}
			st[j-j0] = dot * scale
		}
		m, l = rescaleTile(st[:j1-j0], m, l, acc)
		for j := j0; j < j1; j++ {
			e := fastExp(st[j-j0] - m)
			l += float64(e)
			vo := base + j*w3 + 2*d + o
			axpyUnrolled(acc, sd[vo:vo+dh], e)
		}
	}
	writeAttnRow(dd, acc, l, p, s, d, i, o)
}

// rescaleTile folds one score tile into a row's online-softmax state:
// it takes the tile max and, when the running max rises, rescales the
// accumulator and denominator by exp(mOld-mNew) — from the initial
// -Inf the factor is zero and acc/l are zero. It returns the updated
// max and denominator.
func rescaleTile(st []float32, m float32, l float64, acc []float32) (float32, float64) {
	tm := m
	for _, v := range st {
		if v > tm {
			tm = v
		}
	}
	if tm > m {
		c := fastExp(m - tm)
		for x := range acc {
			acc[x] *= c
		}
		l *= float64(c)
		m = tm
	}
	return m, l
}

// writeAttnRow normalises one row's accumulator by its softmax
// denominator into the [n, S, D] output.
func writeAttnRow(dd, acc []float32, l float64, p, s, d, i, o int) {
	inv := float32(1 / l)
	oo := p*s*d + i*d + o
	out := dd[oo : oo+len(acc)]
	for x, av := range acc {
		out[x] = av * inv
	}
}

// fastExp is the fused kernel's float32 e^x for non-positive arguments
// (online-softmax weights are exp(score-max) with score <= max, and the
// rescale factor is exp(mOld-mNew) with mOld < mNew): Cephes-style
// range reduction x = n*ln2 + r with r in [-ln2/2, ln2/2], a degree-5
// polynomial for e^r, and the 2^n scale reassembled through the float32
// bit layout. Relative error stays under ~2e-7 — three orders inside
// the fused-vs-reference tolerance — at a fraction of math.Exp's
// float64 cost. Inputs below the float32 denormal range flush to 0,
// exactly what a softmax weight that small rounds to anyway.
func fastExp(x float32) float32 {
	const (
		log2e = 1.4426950408889634
		ln2Hi = 0.693359375
		ln2Lo = -2.12194440e-4
	)
	if x < -87.33655 {
		return 0
	}
	t := x * log2e
	// For t <= 0, truncation toward zero of t-0.5 is ceil(t-0.5), which
	// is round-to-nearest — no branch needed on the non-positive domain.
	n := int32(t - 0.5)
	fn := float32(n)
	r := x - fn*ln2Hi - fn*ln2Lo
	z := ((((1.9875691500e-4*r+1.3981999507e-3)*r+8.3334519073e-3)*r+
		4.1665795894e-2)*r+1.6666665459e-1)*r + 5.0000001201e-1
	return math.Float32frombits(uint32(n+127)<<23) * (z*r*r + r + 1)
}

// axpyUnrolled folds one weighted value row into the fused kernel's
// accumulator (a += e*v), 4-wide unrolled with a bounds-hinted reslice:
// the per-lane stores are independent, so unrolling amortises the loop
// overhead the classic one-at-a-time form pays.
func axpyUnrolled(a, v []float32, e float32) {
	a = a[:len(v)]
	x := 0
	for ; x+4 <= len(v); x += 4 {
		a[x] += e * v[x]
		a[x+1] += e * v[x+1]
		a[x+2] += e * v[x+2]
		a[x+3] += e * v[x+3]
	}
	for ; x < len(v); x++ {
		a[x] += e * v[x]
	}
}

// AttentionReferenceInto is the unfused reference kernel: per (point,
// head) it materialises the full S×S score matrix into scratch
// (length at least AttentionReferenceScratchLen(s)), softmaxes every
// row, then runs the textbook P×V product with stride-3D value
// accesses. It allocates nothing and panics on shape or scratch
// mismatch.
func AttentionReferenceInto(dst, src *Tensor, heads int, scratch []float32) {
	n, s, d := attnMustCheck(dst, src, heads)
	if len(scratch) < s*s {
		panic(fmt.Sprintf("tensor: AttentionReferenceInto scratch %d < %d", len(scratch), s*s))
	}
	dh := d / heads
	w3 := 3 * d
	scale := float32(1 / math.Sqrt(float64(dh)))
	sc := scratch[:s*s]
	dd, sd := dst.data, src.data
	for p := 0; p < n; p++ {
		base := p * s * w3
		for h := 0; h < heads; h++ {
			qo, ko, vo := h*dh, d+h*dh, 2*d+h*dh
			// Pass 1: every pairwise scaled dot product.
			for i := 0; i < s; i++ {
				q := sd[base+i*w3+qo : base+i*w3+qo+dh]
				row := sc[i*s : (i+1)*s]
				for j := 0; j < s; j++ {
					k := sd[base+j*w3+ko : base+j*w3+ko+dh]
					var dot float32
					for x, qv := range q {
						dot += qv * k[x]
					}
					row[j] = dot * scale
				}
			}
			// Pass 2: row softmax over the materialised scores.
			softmaxRows(sc, sc, s, s)
			// Pass 3: textbook P×V; the j-innermost loop walks V at
			// stride 3D, the cache-hostile order real unfused
			// runtimes pay.
			for i := 0; i < s; i++ {
				row := sc[i*s : (i+1)*s]
				oo := p*s*d + i*d + h*dh
				out := dd[oo : oo+dh]
				for x := 0; x < dh; x++ {
					var acc float32
					for j, pv := range row {
						acc += pv * sd[base+j*w3+vo+x]
					}
					out[x] = acc
				}
			}
		}
	}
}

// LayerNormResidualInto computes the fused residual-add + layer norm:
// dst = gamma*((x+skip)-mean)/sqrt(var+eps) + beta per row over the
// last dimension, in a single read/write pass (sums and squared sums
// accumulate in float64 while the residual is written). skip may be
// nil (plain layer norm) and dst may alias x. It allocates nothing and
// panics on shape mismatch (plan-compile-validated hot kernel).
func LayerNormResidualInto(dst, x, skip, gamma, beta *Tensor, eps float32) {
	rows, d := lnMustCheck(dst, x, skip, gamma, beta)
	gd, bd := gamma.data, beta.data
	for i := 0; i < rows; i++ {
		xr := x.data[i*d : (i+1)*d]
		dr := dst.data[i*d : (i+1)*d]
		var sum, sumsq float64
		if skip != nil {
			sr := skip.data[i*d : (i+1)*d]
			for j, v := range xr {
				f := v + sr[j]
				dr[j] = f
				sum += float64(f)
				sumsq += float64(f) * float64(f)
			}
		} else {
			for j, v := range xr {
				dr[j] = v
				sum += float64(v)
				sumsq += float64(v) * float64(v)
			}
		}
		mean := sum / float64(d)
		variance := sumsq/float64(d) - mean*mean
		if variance < 0 {
			variance = 0
		}
		inv := float32(1 / math.Sqrt(variance+float64(eps)))
		m32 := float32(mean)
		for j := range dr {
			dr[j] = (dr[j]-m32)*inv*gd[j] + bd[j]
		}
	}
}

// LayerNormReferenceInto is the unfused reference layer norm: the
// residual add, the mean, the (two-pass, centred) variance, and the
// scale/shift each run as their own pass over the row, the op-by-op
// order an unfused graph executor pays. skip may be nil and dst may
// alias x. It allocates nothing and panics on shape mismatch.
func LayerNormReferenceInto(dst, x, skip, gamma, beta *Tensor, eps float32) {
	rows, d := lnMustCheck(dst, x, skip, gamma, beta)
	gd, bd := gamma.data, beta.data
	for i := 0; i < rows; i++ {
		xr := x.data[i*d : (i+1)*d]
		dr := dst.data[i*d : (i+1)*d]
		copy(dr, xr)
		if skip != nil {
			sr := skip.data[i*d : (i+1)*d]
			for j, v := range sr {
				dr[j] += v
			}
		}
		var sum float64
		for _, v := range dr {
			sum += float64(v)
		}
		mean := sum / float64(d)
		var sumsq float64
		for _, v := range dr {
			c := float64(v) - mean
			sumsq += c * c
		}
		inv := float32(1 / math.Sqrt(sumsq/float64(d)+float64(eps)))
		m32 := float32(mean)
		for j := range dr {
			dr[j] = (dr[j]-m32)*inv*gd[j] + bd[j]
		}
	}
}

// lnMustCheck validates layer-norm shapes and returns the row count and
// normalised width.
func lnMustCheck(dst, x, skip, gamma, beta *Tensor) (rows, d int) {
	if gamma.Rank() != 1 || beta.Rank() != 1 || gamma.Len() != beta.Len() || gamma.Len() == 0 {
		panic(fmt.Sprintf("tensor: LayerNorm gamma %v / beta %v malformed", gamma.shape, beta.shape))
	}
	d = gamma.Len()
	if x.Rank() < 1 || x.shape[x.Rank()-1] != d {
		panic(fmt.Sprintf("tensor: LayerNorm width %d against activation %v", d, x.shape))
	}
	if !dst.SameShape(x) {
		panic(fmt.Sprintf("tensor: LayerNorm dst shape %v, want %v", dst.shape, x.shape))
	}
	if skip != nil && !skip.SameShape(x) {
		panic(fmt.Sprintf("tensor: LayerNorm skip shape %v, want %v", skip.shape, x.shape))
	}
	return x.Len() / d, d
}

// GELU approximation constants: sqrt(2/pi) and the cubic coefficient of
// the tanh form used by inference runtimes.
const (
	geluC0 = 0.7978845608028654
	geluC1 = 0.044715
)

// GELUInto computes the fused (tanh-approximation) Gaussian error
// linear unit element-wise: 0.5x(1+tanh(√(2/π)(x+0.044715x³))). dst
// may alias src. It allocates nothing and panics on shape mismatch.
func GELUInto(dst, src *Tensor) {
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("tensor: GELUInto shape mismatch %v -> %v", src.shape, dst.shape))
	}
	for i, v := range src.data {
		u := float64(v)
		dst.data[i] = float32(0.5 * u * (1 + math.Tanh(geluC0*(u+geluC1*u*u*u))))
	}
}

// GELUReferenceInto is the exact-erf GELU, 0.5x(1+erf(x/√2)) — the
// unfused reference the tanh approximation is measured against (the
// two agree within ~1e-3 absolute). dst may alias src.
func GELUReferenceInto(dst, src *Tensor) {
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("tensor: GELUReferenceInto shape mismatch %v -> %v", src.shape, dst.shape))
	}
	for i, v := range src.data {
		u := float64(v)
		dst.data[i] = float32(0.5 * u * (1 + math.Erf(u/math.Sqrt2)))
	}
}
