package model

import (
	"fmt"
	"math"

	"crayfish/internal/tensor"
)

// Post-training static quantization (docs/QUANTIZATION.md): Calibrate
// runs representative float32 inputs through the reference forward
// pass and records the activation range seen at the input of every
// weighted layer; QuantizePlan then compiles a Plan whose Dense, Conv,
// and ProjSkip ops run the packed int8 kernels — symmetric per-channel
// weights, asymmetric per-tensor activations, int32 accumulation, and
// a dequantize back to float32 at each op boundary so the surrounding
// float ops (ReLU, pooling, residual adds, softmax) are untouched.

// UnsupportedQuantKindError reports a layer kind outside the int8
// quantizer's coverage. The transformer kinds (attention, layer norm,
// GELU) stay float32 deliberately: their kernels are softmax- and
// normalisation-shaped, where int8's integer dot products buy nothing,
// so both Calibrate and QuantizePlan reject them upfront instead of
// silently skipping them.
type UnsupportedQuantKindError struct {
	Model string
	Layer string
	Kind  LayerKind
}

func (e *UnsupportedQuantKindError) Error() string {
	return fmt.Sprintf("model %q layer %q: int8 quantization does not support layer kind %q (transformer kernels run float32)", e.Model, e.Layer, e.Kind)
}

// checkQuantKinds scans for layer kinds the quantizer does not cover,
// loudly and before any work happens.
func (m *Model) checkQuantKinds() error {
	for _, l := range m.Layers {
		switch l.Kind {
		case KindAttention, KindLayerNorm, KindGELU:
			return &UnsupportedQuantKindError{Model: m.Name, Layer: l.Name, Kind: l.Kind}
		}
	}
	return nil
}

// LayerStats is the calibrated activation range at one layer's input.
// ChanMin/ChanMax record the per-channel envelope (diagnostics and
// future per-channel activation schemes); Min/Max is the per-tensor
// envelope the quantizer uses.
type LayerStats struct {
	Layer    int
	Name     string
	Min, Max float32
	ChanMin  []float32
	ChanMax  []float32
}

// Calibration is the output of a calibration pass, one entry per
// weighted layer in walk order.
type Calibration struct {
	Model string
	Stats []LayerStats
}

func (c *Calibration) find(layer int) *LayerStats {
	for i := range c.Stats {
		if c.Stats[i].Layer == layer {
			return &c.Stats[i]
		}
	}
	return nil
}

// observeStats scans one activation tensor and records its range:
// per-channel for NCHW (axis 1) and per-feature for dense [n, k]
// batches, plus the per-tensor envelope.
func observeStats(layer int, name string, x *tensor.Tensor) LayerStats {
	st := LayerStats{Layer: layer, Name: name}
	var ch, inner, outer int
	switch x.Rank() {
	case 2:
		ch, inner, outer = x.Dim(1), 1, x.Dim(0)
	case 4:
		ch, inner, outer = x.Dim(1), x.Dim(2)*x.Dim(3), x.Dim(0)
	default:
		ch, inner, outer = 1, x.Len(), 1
	}
	st.ChanMin = make([]float32, ch)
	st.ChanMax = make([]float32, ch)
	for c := range st.ChanMin {
		st.ChanMin[c] = float32(math.Inf(1))
		st.ChanMax[c] = float32(math.Inf(-1))
	}
	d := x.Data()
	if x.Rank() == 2 {
		// Dense batches interleave channels per row.
		for o := 0; o < outer; o++ {
			row := d[o*ch : (o+1)*ch]
			for c, v := range row {
				if v < st.ChanMin[c] {
					st.ChanMin[c] = v
				}
				if v > st.ChanMax[c] {
					st.ChanMax[c] = v
				}
			}
		}
	} else {
		for o := 0; o < outer; o++ {
			for c := 0; c < ch; c++ {
				seg := d[(o*ch+c)*inner : (o*ch+c+1)*inner]
				for _, v := range seg {
					if v < st.ChanMin[c] {
						st.ChanMin[c] = v
					}
					if v > st.ChanMax[c] {
						st.ChanMax[c] = v
					}
				}
			}
		}
	}
	st.Min, st.Max = st.ChanMin[0], st.ChanMax[0]
	for c := 1; c < ch; c++ {
		if st.ChanMin[c] < st.Min {
			st.Min = st.ChanMin[c]
		}
		if st.ChanMax[c] > st.Max {
			st.Max = st.ChanMax[c]
		}
	}
	return st
}

// Calibrate runs a batch of n representative inputs through the
// reference forward pass and records the activation range at the input
// of every Dense, Conv, and ProjSkip layer (for ProjSkip, the range of
// the saved skip activation it projects). The inputs are copied, so
// the caller's buffer is not mutated.
func (m *Model) Calibrate(inputs []float32, n int) (*Calibration, error) {
	if err := m.checkQuantKinds(); err != nil {
		return nil, err
	}
	x, err := m.BatchInput(append([]float32(nil), inputs...), n)
	if err != nil {
		return nil, fmt.Errorf("model %q: calibrating: %w", m.Name, err)
	}
	cal := &Calibration{Model: m.Name}
	var skips []*tensor.Tensor
	for i, l := range m.Layers {
		switch l.Kind {
		case KindDense, KindConv:
			cal.Stats = append(cal.Stats, observeStats(i, l.Name, x))
		case KindProjSkip:
			if len(skips) == 0 {
				return nil, fmt.Errorf("model %q layer %d (%s): projskip with empty skip stack", m.Name, i, l.Name)
			}
			cal.Stats = append(cal.Stats, observeStats(i, l.Name, skips[len(skips)-1]))
		}
		x, skips, err = applyLayer(l, x, skips, ExecHints{})
		if err != nil {
			return nil, fmt.Errorf("model %q layer %d (%s): calibrating: %w", m.Name, i, l.Name, err)
		}
	}
	if len(cal.Stats) == 0 {
		return nil, fmt.Errorf("model %q: no quantizable layers to calibrate", m.Name)
	}
	return cal, nil
}

// PlanAgreement scores a compiled plan against m's reference float32
// forward pass on the same inputs and returns the fraction of points
// whose argmax predictions match — the accuracy-drift metric of the
// int8 contract (docs/QUANTIZATION.md). Both passes get their own copy
// of the inputs.
func PlanAgreement(m *Model, p *Plan, inputs []float32, n int) (float64, error) {
	refIn, err := m.BatchInput(append([]float32(nil), inputs...), n)
	if err != nil {
		return 0, err
	}
	want, err := m.Forward(refIn)
	if err != nil {
		return 0, err
	}
	got := make([]float32, n*p.OutputLen())
	if err := p.Forward(append([]float32(nil), inputs...), n, got); err != nil {
		return 0, err
	}
	cols := p.OutputLen()
	matches := 0
	for i := 0; i < n; i++ {
		row := got[i*cols : (i+1)*cols]
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		if bi == argmaxRow(want, i) {
			matches++
		}
	}
	return float64(matches) / float64(n), nil
}

// qOp is the compiled int8 state of one quantized op: RHS-packed
// per-channel weights, the bias folded into accumulator units (layer
// bias plus the activation zero-point correction), per-channel
// dequantization multipliers, and the fixed activation parameters from
// calibration.
type qOp struct {
	w       *tensor.QTensor
	qbias   []int32
	mult    []float32
	inScale float32
	inZP    int32

	k, n    int // GEMM reduction depth and output channels
	kh, kw  int // conv window (0 for dense)
	patches int // conv output positions per image
	lhsLen  int // packed patch-matrix words per image
}

// qBiasBound keeps the folded bias far from the int32 accumulator
// limits: the raw dot product is bounded by MaxQMatMulK·127·128 ≈
// 2²⁹, so a ±2³⁰ bias can never overflow the sum.
const qBiasBound = 1 << 30

// quantizeOp builds the int8 state for one weighted op.
func quantizeOp(op *planOp, st *LayerStats) (*qOp, error) {
	l := op.l
	scale, zp := tensor.AffineParams(st.Min, st.Max)
	q := &qOp{inScale: scale, inZP: zp}
	switch op.kind {
	case KindDense:
		q.w = tensor.QuantizeDenseWeights(l.W)
		q.k, q.n = l.W.Dim(0), l.W.Dim(1)
	default: // KindConv, KindProjSkip
		q.w = tensor.QuantizeConvWeights(l.W)
		q.kh, q.kw = l.W.Dim(2), l.W.Dim(3)
		q.k, q.n = q.w.Dim(0), q.w.Dim(1)
		c, h, w := op.inDims[0], op.inDims[1], op.inDims[2]
		if c*q.kh*q.kw != q.k {
			return nil, fmt.Errorf("conv geometry drift: %d channels x %dx%d vs packed depth %d", c, q.kh, q.kw, q.k)
		}
		oh := (h+2*l.Pad-q.kh)/l.Stride + 1
		ow := (w+2*l.Pad-q.kw)/l.Stride + 1
		q.patches = oh * ow
		q.lhsLen = q.patches * ((q.k + 1) / 2)
	}
	if q.k > tensor.MaxQMatMulK {
		return nil, fmt.Errorf("reduction depth %d exceeds the int8 GEMM bound %d", q.k, tensor.MaxQMatMulK)
	}
	ws := q.w.Scales()
	cs := q.w.ColSums()
	q.mult = make([]float32, q.n)
	q.qbias = make([]int32, q.n)
	for j := 0; j < q.n; j++ {
		mlt := scale * ws[j]
		q.mult[j] = mlt
		qb := -float64(zp) * float64(cs[j])
		if l.B != nil {
			qb += math.Round(float64(l.B.Data()[j]) / float64(mlt))
		}
		if qb > qBiasBound {
			qb = qBiasBound
		} else if qb < -qBiasBound {
			qb = -qBiasBound
		}
		q.qbias[j] = int32(qb)
	}
	return q, nil
}

// QuantizePlan compiles an int8 execution plan from a calibration.
// Batch norms must be folded first (FoldBatchNorm) — the quantized
// conv output is already in float32, so a trailing unfolded batch norm
// would double-count nothing but wastes the fold, and an interleaved
// one breaks the calibrated ranges; rejecting is simpler and matches
// how int8 deployments ship. Winograd hints are ignored: quantized
// convolutions always lower to the packed im2col GEMM.
func (m *Model) QuantizePlan(hints ExecHints, cal *Calibration) (*Plan, error) {
	if err := m.checkQuantKinds(); err != nil {
		return nil, err
	}
	if cal == nil || len(cal.Stats) == 0 {
		return nil, fmt.Errorf("model %q: QuantizePlan needs a calibration (run Calibrate)", m.Name)
	}
	for i, l := range m.Layers {
		if l.Kind == KindBatchNorm || (l.Kind == KindProjSkip && l.Gamma != nil) {
			return nil, fmt.Errorf("model %q layer %d (%s): quantization requires folded batch norms (model.FoldBatchNorm)", m.Name, i, l.Name)
		}
	}
	hints.FastConv = false
	p, err := m.Compile(hints)
	if err != nil {
		return nil, err
	}
	for i := range p.ops {
		op := &p.ops[i]
		switch op.kind {
		case KindDense, KindConv, KindProjSkip:
		default:
			continue
		}
		st := cal.find(i)
		if st == nil {
			return nil, fmt.Errorf("model %q layer %d (%s): no calibration stats (calibration from model %q?)", m.Name, i, op.l.Name, cal.Model)
		}
		q, err := quantizeOp(op, st)
		if err != nil {
			return nil, fmt.Errorf("model %q layer %d (%s): %w", m.Name, i, op.l.Name, err)
		}
		op.q = q
	}
	// Every conv now runs the int8 path; the float im2col scratch
	// would never be touched.
	p.colLen = 0
	p.quantized = true
	return p, nil
}
