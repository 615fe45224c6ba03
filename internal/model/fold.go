package model

import (
	"math"

	"crayfish/internal/tensor"
)

// FoldBatchNorm returns a copy of m with every inference-mode batch norm
// folded into the convolution that feeds it:
//
//	y = gamma · (conv(x, W) + b − mean) / sqrt(var + eps) + beta
//	  = conv(x, W·s) + (b·s + shift),  s = gamma/sqrt(var+eps)
//
// This is the constant-folding pass optimised serving stacks apply at
// model-load time: it removes one full activation pass per conv layer
// while producing identical outputs within float tolerance. Layers
// without a foldable producer are kept as-is.
func FoldBatchNorm(m *Model) *Model {
	out := &Model{
		Name:       m.Name + "+bnfold",
		InputShape: append([]int(nil), m.InputShape...),
		OutputSize: m.OutputSize,
	}
	for i := 0; i < len(m.Layers); i++ {
		l := m.Layers[i]
		switch l.Kind {
		case kindConv:
			// Fold a directly following batch norm.
			if i+1 < len(m.Layers) && m.Layers[i+1].Kind == kindBatchNorm {
				bn := m.Layers[i+1]
				out.Layers = append(out.Layers, foldConv(l, bn.Gamma, bn.Beta, bn.Mean, bn.Variance, bn.Eps))
				i++ // consume the BN layer
				continue
			}
			out.Layers = append(out.Layers, shallowCopy(l))
		case kindProjSkip:
			if l.Gamma != nil {
				folded := foldConv(l, l.Gamma, l.Beta, l.Mean, l.Variance, l.Eps)
				folded.Kind = kindProjSkip
				folded.Gamma, folded.Beta, folded.Mean, folded.Variance = nil, nil, nil, nil
				out.Layers = append(out.Layers, folded)
				continue
			}
			out.Layers = append(out.Layers, shallowCopy(l))
		default:
			out.Layers = append(out.Layers, shallowCopy(l))
		}
	}
	return out
}

// foldConv builds a conv layer with the BN parameters folded into fresh
// weight and bias tensors.
func foldConv(l *Layer, gamma, beta, mean, variance *tensor.Tensor, eps float32) *Layer {
	oc := l.W.Dim(0)
	per := l.W.Len() / oc
	w := l.W.Clone()
	b := tensor.New(oc)
	if l.B != nil {
		copy(b.Data(), l.B.Data())
	}
	for ch := 0; ch < oc; ch++ {
		s := gamma.Data()[ch] / float32(math.Sqrt(float64(variance.Data()[ch]+eps)))
		seg := w.Data()[ch*per : (ch+1)*per]
		for i := range seg {
			seg[i] *= s
		}
		b.Data()[ch] = b.Data()[ch]*s + beta.Data()[ch] - mean.Data()[ch]*s
	}
	return &Layer{
		Kind: kindConv, Name: l.Name + "+bn",
		W: w, B: b, Stride: l.Stride, Pad: l.Pad,
	}
}

// shallowCopy duplicates a layer's metadata while sharing its tensors,
// resetting lazily-built kernel caches.
func shallowCopy(l *Layer) *Layer {
	return &Layer{
		Kind: l.Kind, Name: l.Name,
		W: l.W, B: l.B,
		Stride: l.Stride, Pad: l.Pad, PoolSize: l.PoolSize,
		Gamma: l.Gamma, Beta: l.Beta, Mean: l.Mean, Variance: l.Variance,
		Eps: l.Eps,
	}
}
