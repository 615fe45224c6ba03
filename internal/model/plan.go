package model

import (
	"fmt"
	"sync"
	"sync/atomic"

	"crayfish/internal/tensor"
)

// Plan is a compiled forward pass: the layer walk is resolved once —
// kernel selection per ExecHints, every intermediate shape, im2col and
// Winograd scratch sizes — so the steady-state Forward allocates
// nothing. Execution ping-pongs arena buffers per layer (a layer's
// input is recycled as soon as its output exists, unless a skip
// connection still references it) and each concurrent caller gets its
// own execution state, so Workers > 1 paths never share scratch.
//
// A Plan is the only executor the product runs: every embedded runtime
// and every serving daemon scores through one. Outputs are bit-identical
// to the oracle, Model.ForwardWith, under the same hints: the plan runs
// the same kernel loop bodies in the same order, only the buffer
// lifetimes (and, with Workers > 1, the row partitioning) differ.
type Plan struct {
	m     *Model
	hints ExecHints
	ops   []planOp
	pool  *tensor.WorkPool // resident matmul fan-out workers, nil when Workers <= 1

	colLen  int // per-image im2col scratch, max over conv ops
	attnLen int // attention kernel scratch, max over attention ops
	nWino   int
	outLen  int // per-point output length

	quantized bool // ops carry int8 kernels (QuantizePlan)
	unfused   bool // keep op-by-op buffer lifetimes (CompileUnfused)

	arenaHits, arenaMisses atomic.Uint64

	mu    sync.Mutex
	slots atomic.Pointer[[]*stateSlot]
}

// convMode is the kernel a conv-like op runs.
type convMode int

const (
	convReference convMode = iota // single-thread textbook GEMM (CPU device)
	convBlocked                   // cache-blocked GEMM
	convPooled                    // blocked GEMM fanned over the work pool
	convWinograd                  // F(2×2,3×3) fast kernel
)

// convModeFor is the convolution kernel-selection table, read by the
// plan compiler and by the interpreter: the fast library runs Winograd
// where it applies (3×3, stride 1) and the blocked GEMM elsewhere,
// pooled when the device offers workers; without it the CPU device
// runs the single-thread reference kernel, matching the paper's
// one-thread CPU inference setting.
func convModeFor(h ExecHints, l *Layer) convMode {
	switch {
	case !h.FastConv:
		return convReference
	case l.Stride == 1 && l.W.Dim(2) == 3 && l.W.Dim(3) == 3:
		return convWinograd
	case h.Workers > 1:
		return convPooled
	default:
		return convBlocked
	}
}

type planOp struct {
	kind LayerKind
	l    *Layer

	mode         convMode
	wino         *tensor.WinogradConv
	winoIdx      int // index into execState.winos, -1 if none
	winoH, winoW int // layer input spatial dims, for scratch sizing
	colLen       int

	dims   []int // per-point output dims (batch dim excluded); nil for in-place ops
	inDims []int // per-point input dims for conv-like ops (quantization needs the geometry)

	attnLen int    // attention scratch floats this op needs
	lnFuse  *Layer // layer norm folded into this residual add (FastConv peephole)
	fused   bool   // this op was consumed by the preceding op's fusion

	q *qOp // int8 kernel state, nil on float plans (see quant.go)
}

// stateSlot holds the execution states for one batch size. The pinned
// pointer is the steady-state fast path — unlike a sync.Pool it is
// never emptied by the GC, so single-threaded callers observe zero
// allocations; concurrent overflow spills to the pool.
type stateSlot struct {
	n      int
	pinned atomic.Pointer[execState]
	pool   sync.Pool
}

// execState is one caller's working memory: an arena, the fan-out join
// point, im2col and Winograd scratch, the skip stack, and the fully
// concrete (batch-size-specific) shape of every op's output.
type execState struct {
	arena   tensor.Arena
	wg      sync.WaitGroup
	col     []float32
	attn    []float32
	winos   []*tensor.WinoScratch
	skips   []*tensor.Tensor
	shapes  [][]int
	inShape []int
}

// Compile resolves the model against the execution hints. The returned
// plan is safe for concurrent use; Close releases its worker pool.
func (m *Model) Compile(hints ExecHints) (*Plan, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{m: m, hints: hints}
	cur := append([]int(nil), m.InputShape...)
	var skips [][]int
	for i, l := range m.Layers {
		op := planOp{kind: l.Kind, l: l, winoIdx: -1}
		fail := func(format string, args ...any) (*Plan, error) {
			return nil, fmt.Errorf("model %q layer %d (%s): %s", m.Name, i, l.Name, fmt.Sprintf(format, args...))
		}
		switch l.Kind {
		case KindDense:
			// Rank-3 transformer activations run the same GEMM over a
			// flattened [n*S, D] view at exec time.
			if len(cur) != 1 && len(cur) != 2 {
				return fail("dense input must be rank 2 or 3, got per-point dims %v", cur)
			}
			if l.W.Dim(0) != cur[len(cur)-1] {
				return fail("dense weight %v against input width %d", l.W.Shape(), cur[len(cur)-1])
			}
			if len(cur) == 2 {
				cur = []int{cur[0], l.W.Dim(1)}
			} else {
				cur = []int{l.W.Dim(1)}
			}
			op.dims = cur
		case KindReLU, KindGELU:
			// in place, any shape
		case KindSoftmax:
			if len(cur) != 1 && len(cur) != 2 {
				return fail("softmax input must be rank 2 or 3, got per-point dims %v", cur)
			}
		case KindConv:
			out, err := p.compileConv(&op, l, cur)
			if err != nil {
				return fail("%v", err)
			}
			cur = out
			op.dims = cur
		case KindBatchNorm:
			if len(cur) != 3 || cur[0] != l.Gamma.Len() {
				return fail("batchnorm over per-point dims %v with %d channels", cur, l.Gamma.Len())
			}
		case KindMaxPool:
			if len(cur) != 3 {
				return fail("maxpool input must be NCHW, got per-point dims %v", cur)
			}
			oh := (cur[1]+2*l.Pad-l.PoolSize)/l.Stride + 1
			ow := (cur[2]+2*l.Pad-l.PoolSize)/l.Stride + 1
			if oh <= 0 || ow <= 0 {
				return fail("maxpool output would be empty for input %v", cur)
			}
			cur = []int{cur[0], oh, ow}
			op.dims = cur
		case KindGlobalAvg:
			if len(cur) != 3 {
				return fail("globalavg input must be NCHW, got per-point dims %v", cur)
			}
			cur = []int{cur[0]}
			op.dims = cur
		case KindFlatten:
			n := 1
			for _, d := range cur {
				n *= d
			}
			cur = []int{n}
			op.dims = cur
		case KindSaveSkip:
			skips = append(skips, cur)
		case KindProjSkip:
			if len(skips) == 0 {
				return fail("projskip with empty skip stack")
			}
			out, err := p.compileConv(&op, l, skips[len(skips)-1])
			if err != nil {
				return fail("%v", err)
			}
			skips[len(skips)-1] = out
			op.dims = out
		case KindResidual:
			if len(skips) == 0 {
				return fail("residual with empty skip stack")
			}
			if !sameDims(cur, skips[len(skips)-1]) {
				return fail("residual dims %v vs skip %v", cur, skips[len(skips)-1])
			}
			skips = skips[:len(skips)-1]
			if m.fusesResidualNorm(hints, i+1) {
				op.lnFuse = m.Layers[i+1]
			}
		case KindAttention:
			out, err := p.compileAttention(&op, l, cur)
			if err != nil {
				return fail("%v", err)
			}
			cur = out
			op.dims = cur
		case KindLayerNorm:
			if len(cur) == 0 || cur[len(cur)-1] != l.Gamma.Len() {
				return fail("layernorm width %d against per-point dims %v", l.Gamma.Len(), cur)
			}
			op.fused = m.fusesResidualNorm(hints, i) // run by the residual before it
		default:
			return fail("unknown layer kind %q", l.Kind)
		}
		if op.colLen > p.colLen {
			p.colLen = op.colLen
		}
		if op.attnLen > p.attnLen {
			p.attnLen = op.attnLen
		}
		p.ops = append(p.ops, op)
	}
	if len(skips) != 0 {
		return nil, fmt.Errorf("model %q: %d unconsumed skip connections", m.Name, len(skips))
	}
	p.outLen = 1
	for _, d := range cur {
		p.outLen *= d
	}
	if hints.Workers > 1 {
		p.pool = tensor.NewWorkPool(hints.Workers - 1)
	}
	empty := make([]*stateSlot, 0)
	p.slots.Store(&empty)
	return p, nil
}

// compileConv resolves one conv-like op: kernel choice, output dims,
// scratch sizes. in is the per-point input dims.
func (p *Plan) compileConv(op *planOp, l *Layer, in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("conv input must be NCHW, got per-point dims %v", in)
	}
	c, h, w := in[0], in[1], in[2]
	op.inDims = append([]int(nil), in...)
	oc, ic, kh, kw := l.W.Dim(0), l.W.Dim(1), l.W.Dim(2), l.W.Dim(3)
	if ic != c {
		return nil, fmt.Errorf("conv channel mismatch: input %d, kernel %d", c, ic)
	}
	oh := (h+2*l.Pad-kh)/l.Stride + 1
	ow := (w+2*l.Pad-kw)/l.Stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("conv output would be empty for input %v kernel %v", in, l.W.Shape())
	}
	if op.mode = convModeFor(p.hints, l); op.mode == convWinograd {
		wc, err := l.winogradConv()
		if err != nil {
			return nil, err
		}
		op.wino = wc
		op.winoIdx = p.nWino
		op.winoH, op.winoW = h, w
		p.nWino++
	} else {
		op.colLen = c * kh * kw * oh * ow
	}
	return []int{oc, oh, ow}, nil
}

func sameDims(a, b []int) bool {
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

// CompileUnfused compiles a plan that keeps the unfused op-by-op
// buffer lifetimes: every operator output stays live until the pass
// ends instead of being recycled into its successor. This models
// runtimes that execute the stored graph node by node without a fusion
// pass (the savedmodel embedded runtime; the eager execution of the
// TorchServe and Ray Serve daemons) while still drawing buffers
// from the arena, so the steady state stays allocation-free. Outputs
// are bit-identical to Compile's — only lifetimes differ.
func (m *Model) CompileUnfused(hints ExecHints) (*Plan, error) {
	p, err := m.Compile(hints)
	if err != nil {
		return nil, err
	}
	p.unfused = true
	return p, nil
}

// Hints returns the execution hints the plan was compiled with.
func (p *Plan) Hints() ExecHints { return p.hints }

// Quantized reports whether the plan executes int8 kernels
// (QuantizePlan). Serving runtimes use it to model int8-sized device
// transfers.
func (p *Plan) Quantized() bool { return p.quantized }

// OutputLen returns the per-point output length.
func (p *Plan) OutputLen() int { return p.outLen }

// ArenaStats aggregates arena hits and misses across all execution
// states the plan has created. Safe to call concurrently with Forward.
func (p *Plan) ArenaStats() (hits, misses uint64) {
	return p.arenaHits.Load(), p.arenaMisses.Load()
}

// Close releases the plan's resident worker pool. No Forward calls may
// be in flight or issued afterwards.
func (p *Plan) Close() {
	if p.pool != nil {
		p.pool.Close()
		p.pool = nil
	}
}

// slot returns the stateSlot for batch size n, creating it on first
// use. The slots slice is copy-on-write so the lookup is a lock-free
// linear scan (plans see a handful of batch sizes).
func (p *Plan) slot(n int) *stateSlot {
	for _, s := range *p.slots.Load() {
		if s.n == n {
			return s
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	old := *p.slots.Load()
	for _, s := range old {
		if s.n == n {
			return s
		}
	}
	s := &stateSlot{n: n}
	next := make([]*stateSlot, len(old)+1)
	copy(next, old)
	next[len(old)] = s
	p.slots.Store(&next)
	return s
}

func (p *Plan) acquire(slot *stateSlot) *execState {
	if s := slot.pinned.Swap(nil); s != nil {
		return s
	}
	if s, _ := slot.pool.Get().(*execState); s != nil {
		return s
	}
	return p.newState(slot.n)
}

func (slot *stateSlot) release(s *execState) {
	if slot.pinned.CompareAndSwap(nil, s) {
		return
	}
	slot.pool.Put(s)
}

// newState builds one caller's working memory for batch size n. This is
// the cold path: everything made here is reused for the state's
// lifetime.
func (p *Plan) newState(n int) *execState {
	s := &execState{
		col:    make([]float32, p.colLen),  //lint:allow hotpathalloc state construction is the cold path; the scratch is reused for the state's lifetime
		attn:   make([]float32, p.attnLen), //lint:allow hotpathalloc state construction is the cold path; the scratch is reused for the state's lifetime
		winos:  make([]*tensor.WinoScratch, p.nWino),
		shapes: make([][]int, len(p.ops)),
	}
	s.arena.CountInto(&p.arenaHits, &p.arenaMisses)
	for i := range p.ops {
		op := &p.ops[i]
		if op.dims != nil {
			s.shapes[i] = append([]int{n}, op.dims...)
		}
		if op.winoIdx >= 0 {
			s.winos[op.winoIdx] = op.wino.NewScratch(op.winoH, op.winoW, op.l.Pad)
		}
	}
	s.inShape = append([]int{n}, p.m.InputShape...)
	return s
}

// Forward scores a batch of n points. in (length n×InputLen) may be
// used as scratch during the call, per the serving buffer-ownership
// contract; the result is written to out (length ≥ n×OutputLen). After
// warmup — one call per (batch size, goroutine) — the pass performs no
// heap allocations.
//
//lint:lent in
func (p *Plan) Forward(in []float32, n int, out []float32) error {
	if n <= 0 {
		return fmt.Errorf("model %q plan: non-positive batch size %d", p.m.Name, n)
	}
	if len(in) != n*p.m.InputLen() {
		return fmt.Errorf("model %q plan: batch of %d points needs %d values, got %d", p.m.Name, n, n*p.m.InputLen(), len(in))
	}
	if len(out) < n*p.outLen {
		return fmt.Errorf("model %q plan: output needs %d values, got %d", p.m.Name, n*p.outLen, len(out))
	}
	slot := p.slot(n)
	s := p.acquire(slot)
	err := p.exec(s, in, out)
	s.skips = s.skips[:0]
	s.arena.Reset()
	slot.release(s)
	return err
}

func (p *Plan) exec(s *execState, in, out []float32) error {
	x := s.arena.Wrap(in, s.inShape...)
	for i := range p.ops {
		op := &p.ops[i]
		l := op.l
		if op.q != nil {
			y, err := p.qApply(s, i, op, x)
			if err != nil {
				return err
			}
			x = y
			continue
		}
		switch op.kind {
		case KindDense:
			y := s.arena.Get(s.shapes[i]...)
			xm, ym := x, y
			if x.Rank() == 3 {
				// Flattened [n*S, D] views over the same buffers; Wrap
				// headers are arena-reused so this stays allocation-free.
				xm = s.arena.Wrap(x.Data(), x.Dim(0)*x.Dim(1), x.Dim(2))
				ym = s.arena.Wrap(y.Data(), y.Dim(0)*y.Dim(1), y.Dim(2))
			}
			if p.hints.Workers > 1 {
				tensor.MatMulParallelInto(ym, xm, l.W, p.hints.Workers, p.pool, &s.wg)
			} else {
				tensor.MatMulInto(ym, xm, l.W)
			}
			tensor.AddBiasInto(ym, ym, l.B)
			p.retire(s, x)
			x = y
		case KindReLU:
			tensor.ReLU(x)
		case KindSoftmax:
			tensor.SoftmaxInto(x, x)
		case KindConv:
			y := s.arena.Get(s.shapes[i]...)
			if err := p.convInto(s, op, y, x); err != nil {
				return err
			}
			p.retire(s, x)
			x = y
		case KindBatchNorm:
			if _, err := tensor.BatchNorm(x, l.Gamma, l.Beta, l.Mean, l.Variance, l.Eps); err != nil {
				return err
			}
		case KindMaxPool:
			y := s.arena.Get(s.shapes[i]...)
			tensor.MaxPool2DInto(y, x, l.PoolSize, l.Stride, l.Pad)
			p.retire(s, x)
			x = y
		case KindGlobalAvg:
			y := s.arena.Get(s.shapes[i]...)
			tensor.GlobalAvgPool2DInto(y, x)
			p.retire(s, x)
			x = y
		case KindFlatten:
			// A view, as in the reference pass: the underlying buffer
			// stays lent until Reset, so it cannot be recycled out
			// from under the view.
			x = s.arena.Wrap(x.Data(), s.shapes[i]...)
		case KindSaveSkip:
			s.skips = append(s.skips, x)
		case KindProjSkip:
			skip := s.skips[len(s.skips)-1]
			y := s.arena.Get(s.shapes[i]...)
			if err := p.convInto(s, op, y, skip); err != nil {
				return err
			}
			if l.Gamma != nil {
				if _, err := tensor.BatchNorm(y, l.Gamma, l.Beta, l.Mean, l.Variance, l.Eps); err != nil {
					return err
				}
			}
			s.skips[len(s.skips)-1] = y
			if skip != x {
				p.retire(s, skip)
			}
		case KindResidual:
			skip := s.skips[len(s.skips)-1]
			s.skips = s.skips[:len(s.skips)-1]
			if ln := op.lnFuse; ln != nil {
				tensor.LayerNormResidualInto(x, x, skip, ln.Gamma, ln.Beta, ln.Eps)
			} else if _, err := tensor.AddInPlace(x, skip); err != nil {
				return err
			}
			if skip != x {
				p.retire(s, skip)
			}
		case KindAttention:
			y := s.arena.Get(s.shapes[i]...)
			p.attnInto(s, op, y, x)
			p.retire(s, x)
			x = y
		case KindLayerNorm:
			if !op.fused {
				lnInto(p.hints, l, x)
			}
		case KindGELU:
			geluInto(p.hints, x)
		}
	}
	copy(out, x.Data())
	return nil
}

// qApply runs one quantized op (docs/QUANTIZATION.md): quantize the
// float32 activation into arena-pooled int8 scratch, run the packed
// int8 kernel into int32 accumulators, fold in the precomputed bias,
// and dequantize back to float32 at the op boundary. Every scratch
// buffer is recycled before returning, so steady state stays
// allocation-free. Returns the new activation (unchanged for
// ProjSkip, which rewrites the skip stack instead).
func (p *Plan) qApply(s *execState, i int, op *planOp, x *tensor.Tensor) (*tensor.Tensor, error) {
	q := op.q
	switch op.kind {
	case KindDense:
		rows := x.Len() / q.k // n, or n·S for a rank-3 [n, S, D] activation
		qx := s.arena.GetQ(rows, q.k)
		tensor.QuantizeLHSInto(qx, x.Data(), q.inScale, q.inZP)
		acc := s.arena.GetAcc(rows * q.n)
		tensor.QMatMulInto(acc, qx, q.w)
		tensor.QAddBiasInto(acc, q.qbias, rows, q.n)
		y := s.arena.Get(s.shapes[i]...)
		tensor.DequantizeAccInto(y.Data(), acc, q.mult, rows, q.n)
		s.arena.RecycleAcc(acc)
		s.arena.RecycleQ(qx)
		p.retire(s, x)
		return y, nil
	case KindConv, KindProjSkip:
		src := x
		if op.kind == KindProjSkip {
			src = s.skips[len(s.skips)-1]
		}
		n := src.Dim(0)
		qin := s.arena.GetQ(src.Shape()...)
		tensor.QuantizeInto(qin, src.Data(), q.inScale, q.inZP)
		lhs := s.arena.GetU64(q.lhsLen)
		rsum := s.arena.GetAcc(q.patches)
		acc := s.arena.GetAcc(n * q.patches * q.n)
		tensor.QConv2DInto(acc, qin, q.w, q.kh, q.kw, op.l.Stride, op.l.Pad, lhs, rsum)
		tensor.QAddBiasInto(acc, q.qbias, n*q.patches, q.n)
		y := s.arena.Get(s.shapes[i]...)
		tensor.DequantizeAccTInto(y.Data(), acc, q.mult, n, q.patches, q.n)
		s.arena.RecycleAcc(acc)
		s.arena.RecycleAcc(rsum)
		s.arena.RecycleU64(lhs)
		s.arena.RecycleQ(qin)
		if op.kind == KindProjSkip {
			s.skips[len(s.skips)-1] = y
			if src != x {
				p.retire(s, src)
			}
			return x, nil
		}
		p.retire(s, x)
		return y, nil
	}
	return nil, fmt.Errorf("model %q: quantized op on unsupported layer kind %q", p.m.Name, op.kind)
}

// retire recycles a dead activation unless the plan keeps unfused
// op-by-op lifetimes, in which case outputs stay live until Reset.
func (p *Plan) retire(s *execState, t *tensor.Tensor) {
	if p.unfused {
		return
	}
	s.retire(t)
}

// retire recycles a dead activation unless a skip connection still
// references it. Wrap headers (the input, flatten views) are ignored by
// the arena.
func (s *execState) retire(t *tensor.Tensor) {
	for _, sk := range s.skips {
		if sk == t {
			return
		}
	}
	s.arena.Recycle(t)
}

func (p *Plan) convInto(s *execState, op *planOp, dst, src *tensor.Tensor) error {
	switch op.mode {
	case convWinograd:
		op.wino.ApplyInto(dst, src, op.l.Pad, s.winos[op.winoIdx])
	case convPooled:
		tensor.Conv2DPoolInto(dst, src, op.l.W, op.l.Stride, op.l.Pad, s.col, p.hints.Workers, p.pool, &s.wg)
	case convBlocked:
		tensor.Conv2DInto(dst, src, op.l.W, op.l.Stride, op.l.Pad, s.col)
	default:
		tensor.Conv2DReferenceInto(dst, src, op.l.W, op.l.Stride, op.l.Pad, s.col)
	}
	if op.l.B != nil {
		if _, err := tensor.AddChannelBias(dst, op.l.B); err != nil {
			return err
		}
	}
	return nil
}
