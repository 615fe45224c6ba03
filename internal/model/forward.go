package model

import (
	"fmt"

	"crayfish/internal/tensor"
)

// ExecHints tunes how a forward pass executes. The zero value is the
// sequential reference path; accelerator devices request data-parallel
// kernels (Workers > 1) and fast convolution algorithms (FastConv), both
// producing identical outputs within float tolerance. Which kernel a
// hint set selects is decided in one place: convModeFor for
// convolutions, attnexec.go for the transformer operators.
type ExecHints struct {
	// Workers fans conv/matmul/attention kernels of a compiled Plan out
	// over its resident work pool when > 1. Row partitioning is
	// bit-identical at any worker count, so the interpreter
	// (Forward/ForwardWith) ignores it and stays sequential.
	Workers int
	// FastConv selects the fast library kernels, as accelerator
	// libraries do: the Winograd F(2×2,3×3) kernel for eligible
	// convolutions (3×3, stride 1) and the fused transformer kernels
	// (flash-style tiled attention, one-pass residual + layer norm,
	// tanh GELU).
	FastConv bool
}

// Forward runs the reference (unfused, sequential) forward pass over a
// batch. For dense models the input has shape [n, features]; for
// convolutional models [n, c, h, w]. It returns the [n, classes] output.
//
// This is the oracle, not an executor: no serving path runs it. Every
// compiled Plan must match it bit for bit under the same hints
// (TestGraphDifferential), the int8 plan within the drift contract, and
// Calibrate walks it. It allocates every intermediate and is free to.
func (m *Model) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	return m.forward(in, ExecHints{})
}

// ForwardWith is Forward under explicit execution hints: the oracle for
// a Plan compiled with the same hints. FastConv selects the kernels a
// plan would run; Workers is ignored (see ExecHints).
func (m *Model) ForwardWith(in *tensor.Tensor, hints ExecHints) (*tensor.Tensor, error) {
	return m.forward(in, hints)
}

func (m *Model) forward(in *tensor.Tensor, opts ExecHints) (*tensor.Tensor, error) {
	opts.Workers = 0 // the oracle is sequential (see ExecHints.Workers)
	x := in
	var skips []*tensor.Tensor
	var err error
	for i := 0; i < len(m.Layers); i++ {
		l := m.Layers[i]
		// The fast-kernel path folds a residual add into the layer norm
		// that follows it (one read/write pass instead of two), where
		// the plan's compile-time peephole does.
		if l.Kind == KindResidual && m.fusesResidualNorm(opts, i+1) {
			x, skips, err = fusedResidualNorm(x, skips, m.Layers[i+1])
			if err != nil {
				return nil, fmt.Errorf("model %q layer %d (%s): %w", m.Name, i, l.Name, err)
			}
			i++
			continue
		}
		x, skips, err = applyLayer(l, x, skips, opts)
		if err != nil {
			return nil, fmt.Errorf("model %q layer %d (%s): %w", m.Name, i, l.Name, err)
		}
	}
	if len(skips) != 0 {
		return nil, fmt.Errorf("model %q: %d unconsumed skip connections", m.Name, len(skips))
	}
	return x, nil
}

// applyLayer executes one layer, returning the new activation and skip
// stack.
func applyLayer(l *Layer, x *tensor.Tensor, skips []*tensor.Tensor, opts ExecHints) (*tensor.Tensor, []*tensor.Tensor, error) {
	switch l.Kind {
	case KindDense:
		// Rank-3 transformer activations [n, S, D] run the same GEMM
		// over a flattened [n*S, D] view and fold back afterwards.
		xm := x
		if x.Rank() == 3 {
			v, err := x.Reshape(x.Dim(0)*x.Dim(1), x.Dim(2))
			if err != nil {
				return nil, skips, err
			}
			xm = v
		}
		y, err := tensor.MatMul(xm, l.W)
		if err != nil {
			return nil, skips, err
		}
		if _, err := tensor.AddBias(y, l.B); err != nil {
			return nil, skips, err
		}
		if x.Rank() == 3 {
			if y, err = y.Reshape(x.Dim(0), x.Dim(1), l.W.Dim(1)); err != nil {
				return nil, skips, err
			}
		}
		return y, skips, nil

	case KindReLU:
		return tensor.ReLU(x), skips, nil

	case KindSoftmax:
		y, err := tensor.Softmax(x)
		return y, skips, err

	case KindConv:
		y, err := convOp(x, l, opts)
		return y, skips, err

	case KindBatchNorm:
		y, err := tensor.BatchNorm(x, l.Gamma, l.Beta, l.Mean, l.Variance, l.Eps)
		return y, skips, err

	case KindMaxPool:
		y, err := tensor.MaxPool2D(x, l.PoolSize, l.Stride, l.Pad)
		return y, skips, err

	case KindGlobalAvg:
		y, err := tensor.GlobalAvgPool2D(x)
		return y, skips, err

	case KindFlatten:
		y, err := x.Reshape(x.Dim(0), -1)
		return y, skips, err

	case KindSaveSkip:
		return x, append(skips, x), nil

	case KindProjSkip:
		if len(skips) == 0 {
			return nil, skips, fmt.Errorf("projskip with empty skip stack")
		}
		skip := skips[len(skips)-1]
		y, err := convOp(skip, l, opts)
		if err != nil {
			return nil, skips, err
		}
		if l.Gamma != nil {
			if _, err := tensor.BatchNorm(y, l.Gamma, l.Beta, l.Mean, l.Variance, l.Eps); err != nil {
				return nil, skips, err
			}
		}
		skips[len(skips)-1] = y
		return x, skips, nil

	case KindResidual:
		if len(skips) == 0 {
			return nil, skips, fmt.Errorf("residual with empty skip stack")
		}
		skip := skips[len(skips)-1]
		skips = skips[:len(skips)-1]
		y, err := tensor.AddInPlace(x, skip)
		return y, skips, err

	case KindAttention:
		y, err := attnOp(x, l, opts)
		return y, skips, err

	case KindLayerNorm:
		if err := lnShapeCheck(x, l); err != nil {
			return nil, skips, err
		}
		lnInto(opts, l, x)
		return x, skips, nil

	case KindGELU:
		geluInto(opts, x)
		return x, skips, nil

	default:
		return nil, skips, fmt.Errorf("unknown layer kind %q", l.Kind)
	}
}

func convOp(x *tensor.Tensor, l *Layer, opts ExecHints) (*tensor.Tensor, error) {
	var y *tensor.Tensor
	var err error
	switch convModeFor(opts, l) {
	case convWinograd:
		y, err = l.winogradApply(x)
	case convReference:
		y, err = tensor.Conv2DReference(x, l.W, l.Stride, l.Pad)
	default:
		// convBlocked; convPooled is the same blocked GEMM with its
		// rows partitioned, which a sequential pass never asks for.
		y, err = tensor.Conv2D(x, l.W, l.Stride, l.Pad)
	}
	if err != nil {
		return nil, err
	}
	if l.B != nil {
		if _, err := tensor.AddChannelBias(y, l.B); err != nil {
			return nil, err
		}
	}
	return y, nil
}

// attnOp is convOp for attention.
func attnOp(x *tensor.Tensor, l *Layer, opts ExecHints) (*tensor.Tensor, error) {
	if attnModeFor(opts) == attnReference {
		return tensor.AttentionReference(x, l.Heads)
	}
	// attnFused; attnPooled is the same kernel with its lanes partitioned.
	return tensor.Attention(x, l.Heads)
}

// fusedResidualNorm pops the skip stack and runs the fused
// residual-add + layer norm kernel in place of the two separate ops.
func fusedResidualNorm(x *tensor.Tensor, skips []*tensor.Tensor, ln *Layer) (*tensor.Tensor, []*tensor.Tensor, error) {
	if len(skips) == 0 {
		return nil, skips, fmt.Errorf("residual with empty skip stack")
	}
	skip := skips[len(skips)-1]
	skips = skips[:len(skips)-1]
	if err := lnShapeCheck(x, ln); err != nil {
		return nil, skips, err
	}
	if !x.SameShape(skip) {
		return nil, skips, fmt.Errorf("residual shape mismatch %v + %v", x.Shape(), skip.Shape())
	}
	tensor.LayerNormResidualInto(x, x, skip, ln.Gamma, ln.Beta, ln.Eps)
	return x, skips, nil
}

// lnShapeCheck validates a layer-norm activation before the panicking
// hot kernel runs.
func lnShapeCheck(x *tensor.Tensor, l *Layer) error {
	if x.Rank() < 1 || x.Dim(x.Rank()-1) != l.Gamma.Len() {
		return fmt.Errorf("layernorm width %d against activation %v", l.Gamma.Len(), x.Shape())
	}
	return nil
}

// winogradConv returns the layer's cached Winograd transform, building
// it on first use (the weight transform amortises across calls, as in
// real inference runtimes). Plans call it at compile time so planned
// and unplanned passes share the exact same transformed weights.
func (l *Layer) winogradConv() (*tensor.WinogradConv, error) {
	var err error
	l.winoOnce.Do(func() {
		l.winograd, err = tensor.NewWinogradConv(l.W)
	})
	if err != nil {
		return nil, err
	}
	if l.winograd == nil {
		return nil, fmt.Errorf("winograd transform unavailable for layer %s", l.Name)
	}
	return l.winograd, nil
}

// winogradApply runs the layer's cached Winograd transform.
func (l *Layer) winogradApply(x *tensor.Tensor) (*tensor.Tensor, error) {
	w, err := l.winogradConv()
	if err != nil {
		return nil, err
	}
	return w.Apply(x, l.Pad)
}

// BatchInput reshapes a flat batch of data points into the tensor shape the
// model expects: [n, features] for dense models, [n, c, h, w] for
// convolutional ones. The data slice must hold n×InputLen values.
func (m *Model) BatchInput(data []float32, n int) (*tensor.Tensor, error) {
	if n <= 0 {
		return nil, fmt.Errorf("model %q: non-positive batch size %d", m.Name, n)
	}
	want := n * m.InputLen()
	if len(data) != want {
		return nil, fmt.Errorf("model %q: batch of %d points needs %d values, got %d", m.Name, n, want, len(data))
	}
	shape := append([]int{n}, m.InputShape...)
	return tensor.FromSlice(data, shape...)
}
