package model

// Kernel dispatch for the transformer operators (attention, layer
// norm, GELU): the one place their fast-vs-reference choice is made,
// read by the compiled plan and by the interpreter alike, as
// convModeFor is for convolutions. Like plan.go this whole file is on
// the hotpathalloc analyzer's hot list: every kernel writes into arena
// buffers or the execution state's pre-sized attention scratch.

import (
	"fmt"

	"crayfish/internal/tensor"
)

// attnMode is the kernel an attention op runs.
type attnMode int

const (
	attnReference attnMode = iota // materialised S×S scores, textbook P×V (CPU device)
	attnFused                     // flash-style tiled kernel, its lanes over Workers
)

// attnModeFor is the attention half of the kernel-selection table. As
// for the blocked convolution, the worker count is a parameter of the
// fused kernel, not a mode of its own.
func attnModeFor(h ExecHints) attnMode {
	if !h.FastConv {
		return attnReference
	}
	return attnFused
}

// compileAttention resolves one attention op: head geometry and the
// scratch floats the chosen kernel needs. in is the per-point input
// dims ([S, 3D] for a packed q|k|v activation).
func (p *Plan) compileAttention(op *planOp, l *Layer, in []int) ([]int, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("attention input must be rank 3 [n, seq, 3*dim], got per-point dims %v", in)
	}
	s, w := in[0], in[1]
	if w == 0 || w%3 != 0 {
		return nil, fmt.Errorf("attention input width %d not divisible by 3 (rows pack q|k|v)", w)
	}
	d := w / 3
	if l.Heads <= 0 || d%l.Heads != 0 {
		return nil, fmt.Errorf("attention with %d heads over model dim %d", l.Heads, d)
	}
	if attnModeFor(p.hints) == attnReference {
		op.attnLen = tensor.AttentionReferenceScratchLen(s)
	} else {
		op.attnLen = tensor.AttentionScratchLen(d, l.Heads, p.hints.Workers)
	}
	return []int{s, d}, nil
}

// attnInto runs one compiled attention op into dst. Scratch comes from
// the execution state's pre-sized attention buffer.
func (p *Plan) attnInto(s *execState, op *planOp, dst, src *tensor.Tensor) {
	if attnModeFor(p.hints) == attnReference {
		tensor.AttentionReferenceInto(dst, src, op.l.Heads, s.attn)
		return
	}
	tensor.AttentionPoolInto(dst, src, op.l.Heads, s.attn, p.hints.Workers, p.pool, &s.wg)
}

// fusesResidualNorm reports whether layer i is a layer norm the fast
// kernels fold into the residual add directly before it (one
// read/write pass instead of two).
func (m *Model) fusesResidualNorm(h ExecHints, i int) bool {
	return h.FastConv && i > 0 && i < len(m.Layers) &&
		m.Layers[i].Kind == kindLayerNorm && m.Layers[i-1].Kind == kindResidual
}

// lnInto runs one standalone layer norm in place (a residual-fused one
// is executed by its residual op instead): the one-pass kernel under
// FastConv, the multi-pass reference otherwise.
func lnInto(h ExecHints, l *Layer, x *tensor.Tensor) {
	if h.FastConv {
		tensor.LayerNormResidualInto(x, x, nil, l.Gamma, l.Beta, l.Eps)
		return
	}
	tensor.LayerNormReferenceInto(x, x, nil, l.Gamma, l.Beta, l.Eps)
}

// geluInto runs one GELU op in place: the fused tanh approximation
// under FastConv, the exact-erf reference otherwise.
func geluInto(h ExecHints, x *tensor.Tensor) {
	if h.FastConv {
		tensor.GELUInto(x, x)
		return
	}
	tensor.GELUReferenceInto(x, x)
}
