package model

import (
	"fmt"
	"math/rand"

	"crayfish/internal/tensor"
)

// TransformerConfig controls the transformer encoder builder.
type TransformerConfig struct {
	Seed int64
	// SeqLen is S, the token rows per data point.
	SeqLen int
	// ModelDim is D, the embedding width; must be divisible by Heads.
	ModelDim int
	// Heads is the attention head count.
	Heads int
	// FFNDim is the hidden width of the position-wise feed-forward nets.
	FFNDim int
	// Blocks is the encoder block count.
	Blocks int
	// Classes is the classifier output width.
	Classes int
}

// DefaultTransformerConfig returns the benchmark transformer: a 2-block
// post-LN encoder over 32 tokens of width 64 with 4 heads and a 128-wide
// feed-forward net, classifying into 10 classes (~120K parameters) —
// small enough that a pure-Go forward pass stays in the sub-millisecond
// regime the streaming benchmarks need, while exercising every
// transformer operator class.
func DefaultTransformerConfig(seed int64) TransformerConfig {
	return TransformerConfig{Seed: seed, SeqLen: 32, ModelDim: 64, Heads: 4, FFNDim: 128, Blocks: 2, Classes: 10}
}

// initLN returns layer-norm tensors: unit gamma, small random beta so
// the op is numerically non-trivial.
func initLN(r *rand.Rand, d int) (gamma, beta *tensor.Tensor) {
	gamma, beta = tensor.New(d), tensor.New(d)
	for i := 0; i < d; i++ {
		gamma.Data()[i] = 1
		beta.Data()[i] = float32(r.NormFloat64() * 0.01)
	}
	return
}

// NewTransformer builds a post-LN transformer encoder classifier: per
// block, a fused QKV dense projection (x·Wqkv packs q|k|v per token
// row), multi-head self-attention, an output projection, residual add +
// layer norm, then a GELU feed-forward net with its own residual add +
// layer norm; a flatten → dense → softmax classifier head follows the
// last block. Input shape is [SeqLen, ModelDim] per data point (token
// embeddings arrive precomputed, as in the MLPerf-style inference
// setting where the tokenizer lives upstream of the model).
func NewTransformer(cfg TransformerConfig) *Model {
	r := rand.New(rand.NewSource(cfg.Seed))
	name := "transformer"
	def := DefaultTransformerConfig(cfg.Seed)
	if cfg != def {
		name = fmt.Sprintf("transformer-s%d-d%d-h%d-f%d-b%d-c%d",
			cfg.SeqLen, cfg.ModelDim, cfg.Heads, cfg.FFNDim, cfg.Blocks, cfg.Classes)
	}
	d, f := cfg.ModelDim, cfg.FFNDim
	m := &Model{
		Name:       name,
		InputShape: []int{cfg.SeqLen, d},
		OutputSize: cfg.Classes,
	}
	for b := 0; b < cfg.Blocks; b++ {
		prefix := fmt.Sprintf("block%d", b)
		qkvW, qkvB := initDense(r, d, 3*d)
		projW, projB := initDense(r, d, d)
		g1, b1 := initLN(r, d)
		ff1W, ff1B := initDense(r, d, f)
		ff2W, ff2B := initDense(r, f, d)
		g2, b2 := initLN(r, d)
		m.Layers = append(m.Layers,
			&Layer{Kind: kindSaveSkip, Name: prefix + ".attn.skip"},
			&Layer{Kind: kindDense, Name: prefix + ".attn.qkv", W: qkvW, B: qkvB},
			&Layer{Kind: kindAttention, Name: prefix + ".attn", Heads: cfg.Heads},
			&Layer{Kind: kindDense, Name: prefix + ".attn.proj", W: projW, B: projB},
			&Layer{Kind: kindResidual, Name: prefix + ".attn.add"},
			&Layer{Kind: kindLayerNorm, Name: prefix + ".attn.norm", Gamma: g1, Beta: b1, Eps: 1e-5},
			&Layer{Kind: kindSaveSkip, Name: prefix + ".ffn.skip"},
			&Layer{Kind: kindDense, Name: prefix + ".ffn.up", W: ff1W, B: ff1B},
			&Layer{Kind: kindGELU, Name: prefix + ".ffn.gelu"},
			&Layer{Kind: kindDense, Name: prefix + ".ffn.down", W: ff2W, B: ff2B},
			&Layer{Kind: kindResidual, Name: prefix + ".ffn.add"},
			&Layer{Kind: kindLayerNorm, Name: prefix + ".ffn.norm", Gamma: g2, Beta: b2, Eps: 1e-5})
	}
	m.Layers = append(m.Layers, &Layer{Kind: kindFlatten, Name: "flatten"})
	w, bias := initDense(r, cfg.SeqLen*d, cfg.Classes)
	m.Layers = append(m.Layers,
		&Layer{Kind: kindDense, Name: "logits", W: w, B: bias},
		&Layer{Kind: kindSoftmax, Name: "probs"})
	return m
}
