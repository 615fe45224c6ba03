// Package model builds and executes the neural networks evaluated by the
// paper: the FFNN Fashion-MNIST classifier (28K parameters) and the
// ResNet bottleneck architecture (full-width ResNet50 has 23M+ parameters).
//
// A model is a linear graph of layers. Weights are initialised
// deterministically (He initialisation from a seeded PRNG) so that every
// serving runtime in the repository scores identical models, mirroring how
// the paper distributes one pre-trained model in several storage formats.
//
// A model is executed one way: compiled into a Plan (Compile, the
// op-by-op CompileUnfused, the int8 QuantizePlan), which every embedded
// runtime and every serving daemon scores through. The interpreter
// (Forward, ForwardWith) is the oracle beside it, as MLPerf keeps one
// reference implementation that every optimised path is checked
// against: sequential, allocating, run by no serving path — the plans
// are tested bit for bit against it on seeded random graphs, Calibrate
// walks it, and benchmarks use it as the labelled baseline.
package model

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"crayfish/internal/tensor"
)

// LayerKind identifies the operator a layer applies.
type LayerKind string

// Layer kinds understood by the execution engines and storage formats.
const (
	KindDense     LayerKind = "dense"     // x·W + b
	KindReLU      LayerKind = "relu"      // max(0, x)
	KindSoftmax   LayerKind = "softmax"   // row-wise softmax
	KindConv      LayerKind = "conv"      // 2-D convolution, NCHW
	KindBatchNorm LayerKind = "batchnorm" // inference-mode batch norm
	KindMaxPool   LayerKind = "maxpool"   // k×k max pooling
	KindGlobalAvg LayerKind = "globalavg" // global average pool -> rank 2
	KindFlatten   LayerKind = "flatten"   // collapse to [n, features]
	KindResidual  LayerKind = "residual"  // add a saved skip connection
	KindSaveSkip  LayerKind = "saveskip"  // remember activation for residual
	KindProjSkip  LayerKind = "projskip"  // 1×1 conv + BN on the saved skip
	KindAttention LayerKind = "attention" // multi-head self-attention over packed q|k|v rows
	KindLayerNorm LayerKind = "layernorm" // per-row layer norm over the last dim
	KindGELU      LayerKind = "gelu"      // Gaussian error linear unit
)

// Layer is one operator in a model graph. Only the fields relevant to its
// Kind are populated.
type Layer struct {
	Kind LayerKind
	Name string

	// Dense: W is [in, out]; B is [out].
	// Conv / ProjSkip: W is OIHW; B is [out channels].
	W *tensor.Tensor
	B *tensor.Tensor

	// Conv parameters.
	Stride int
	Pad    int
	// MaxPool parameters (Stride/Pad shared with conv fields).
	PoolSize int
	// Attention parameter: query/key/value head count. The packed q|k|v
	// projection itself folds into the preceding dense layer.
	Heads int

	// BatchNorm parameters (also used by ProjSkip's BN); LayerNorm uses
	// Gamma/Beta/Eps only.
	Gamma, Beta, Mean, Variance *tensor.Tensor
	Eps                         float32

	// winograd caches the fast-kernel weight transform, built lazily on
	// the first FastConv execution.
	winograd *tensor.WinogradConv
	winoOnce sync.Once
}

// Model is an immutable linear graph of layers plus metadata.
type Model struct {
	Name       string
	InputShape []int // per data point, without the batch dimension
	OutputSize int
	Layers     []*Layer
}

// ParamCount returns the total number of learnable parameters.
func (m *Model) ParamCount() int {
	n := 0
	for _, l := range m.Layers {
		for _, t := range []*tensor.Tensor{l.W, l.B, l.Gamma, l.Beta, l.Mean, l.Variance} {
			if t != nil {
				n += t.Len()
			}
		}
	}
	return n
}

// InputLen returns the flattened per-point input length.
func (m *Model) InputLen() int {
	n := 1
	for _, d := range m.InputShape {
		n *= d
	}
	return n
}

// Validate checks structural invariants: every layer has the tensors its
// kind requires, and residual layers are preceded by a matching save-skip.
func (m *Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("model %q: no layers", m.Name)
	}
	if m.InputLen() == 0 {
		return fmt.Errorf("model %q: empty input shape %v", m.Name, m.InputShape)
	}
	skipDepth := 0
	for i, l := range m.Layers {
		switch l.Kind {
		case KindDense:
			if l.W == nil || l.B == nil || l.W.Rank() != 2 || l.B.Rank() != 1 {
				return fmt.Errorf("model %q layer %d (%s): malformed dense tensors", m.Name, i, l.Name)
			}
			if l.W.Dim(1) != l.B.Dim(0) {
				return fmt.Errorf("model %q layer %d (%s): dense W/B mismatch", m.Name, i, l.Name)
			}
		case KindConv, KindProjSkip:
			if l.W == nil || l.W.Rank() != 4 {
				return fmt.Errorf("model %q layer %d (%s): malformed conv kernel", m.Name, i, l.Name)
			}
			if l.Stride <= 0 {
				return fmt.Errorf("model %q layer %d (%s): non-positive stride", m.Name, i, l.Name)
			}
		case KindBatchNorm:
			if l.Gamma == nil || l.Beta == nil || l.Mean == nil || l.Variance == nil {
				return fmt.Errorf("model %q layer %d (%s): malformed batchnorm", m.Name, i, l.Name)
			}
		case KindMaxPool:
			if l.PoolSize <= 0 || l.Stride <= 0 {
				return fmt.Errorf("model %q layer %d (%s): malformed maxpool", m.Name, i, l.Name)
			}
		case KindAttention:
			if l.Heads <= 0 {
				return fmt.Errorf("model %q layer %d (%s): attention needs a positive head count", m.Name, i, l.Name)
			}
		case KindLayerNorm:
			if l.Gamma == nil || l.Beta == nil || l.Gamma.Rank() != 1 || l.Beta.Rank() != 1 || l.Gamma.Len() != l.Beta.Len() {
				return fmt.Errorf("model %q layer %d (%s): malformed layernorm", m.Name, i, l.Name)
			}
		case KindReLU, KindSoftmax, KindGlobalAvg, KindFlatten, KindGELU:
			// No parameters.
		case KindSaveSkip:
			skipDepth++
		case KindResidual:
			if skipDepth == 0 {
				return fmt.Errorf("model %q layer %d (%s): residual without saved skip", m.Name, i, l.Name)
			}
			skipDepth--
		default:
			return fmt.Errorf("model %q layer %d: unknown kind %q", m.Name, i, l.Kind)
		}
		if l.Kind == KindProjSkip {
			// Either a full BN parameter set or none at all (the
			// BN was folded into the projection weights).
			present := 0
			for _, t := range []*tensor.Tensor{l.Gamma, l.Beta, l.Mean, l.Variance} {
				if t != nil {
					present++
				}
			}
			if present != 0 && present != 4 {
				return fmt.Errorf("model %q layer %d (%s): projskip has partial batchnorm tensors", m.Name, i, l.Name)
			}
		}
	}
	if skipDepth != 0 {
		return fmt.Errorf("model %q: %d unconsumed skip connections", m.Name, skipDepth)
	}
	return nil
}

// initDense fills W with He-initialised weights and B with zeros.
func initDense(r *rand.Rand, in, out int) (*tensor.Tensor, *tensor.Tensor) {
	w := tensor.New(in, out)
	std := math.Sqrt(2 / float64(in))
	for i := range w.Data() {
		w.Data()[i] = float32(r.NormFloat64() * std)
	}
	return w, tensor.New(out)
}

// initConv fills an OIHW kernel with He-initialised weights.
func initConv(r *rand.Rand, oc, ic, kh, kw int) *tensor.Tensor {
	w := tensor.New(oc, ic, kh, kw)
	std := math.Sqrt(2 / float64(ic*kh*kw))
	for i := range w.Data() {
		w.Data()[i] = float32(r.NormFloat64() * std)
	}
	return w
}

// initBN returns inference-mode batch norm tensors: unit gamma/variance,
// small random mean/beta so the op is numerically non-trivial.
func initBN(r *rand.Rand, c int) (gamma, beta, mean, variance *tensor.Tensor) {
	gamma, beta, mean, variance = tensor.New(c), tensor.New(c), tensor.New(c), tensor.New(c)
	for i := 0; i < c; i++ {
		gamma.Data()[i] = 1
		beta.Data()[i] = float32(r.NormFloat64() * 0.01)
		mean.Data()[i] = float32(r.NormFloat64() * 0.01)
		variance.Data()[i] = 1
	}
	return
}

// NewFFNN builds the paper's FFNN: a fully-connected Fashion-MNIST
// classifier with a 28×28 input, three hidden ReLU layers of 32 neurons,
// and a 10-way softmax output (~28K parameters).
func NewFFNN(seed int64) *Model {
	return NewFFNNSized(seed, 28*28, []int{32, 32, 32}, 10)
}

// NewFFNNSized builds a fully-connected classifier with arbitrary input
// size, hidden widths, and class count. It is used by the model-tuning
// example to sweep the latency–accuracy trade-off (§2.2.2).
func NewFFNNSized(seed int64, in int, hidden []int, classes int) *Model {
	r := rand.New(rand.NewSource(seed))
	m := &Model{
		Name:       fmt.Sprintf("ffnn-%d-%v-%d", in, hidden, classes),
		InputShape: []int{in},
		OutputSize: classes,
	}
	if in == 28*28 && len(hidden) == 3 && hidden[0] == 32 && hidden[1] == 32 && hidden[2] == 32 && classes == 10 {
		m.Name = "ffnn"
	}
	prev := in
	for i, h := range hidden {
		w, b := initDense(r, prev, h)
		m.Layers = append(m.Layers,
			&Layer{Kind: KindDense, Name: fmt.Sprintf("dense%d", i), W: w, B: b},
			&Layer{Kind: KindReLU, Name: fmt.Sprintf("relu%d", i)})
		prev = h
	}
	w, b := initDense(r, prev, classes)
	m.Layers = append(m.Layers,
		&Layer{Kind: KindDense, Name: "logits", W: w, B: b},
		&Layer{Kind: KindSoftmax, Name: "probs"})
	return m
}

// ResNetConfig controls the ResNet builder.
type ResNetConfig struct {
	Seed int64
	// WidthMult scales every channel count. 1.0 reproduces ResNet50's
	// 23M+ parameters; the benchmark default uses a reduced width so a
	// pure-Go forward pass stays in the paper's hundreds-of-ms regime.
	WidthMult float64
	// InputSize is the square input edge (224 in the paper).
	InputSize int
	// Blocks per stage; ResNet50 uses {3, 4, 6, 3}.
	Blocks [4]int
	// Classes is the output width (1000 in the paper).
	Classes int
}

// DefaultResNetConfig returns the full ResNet50 configuration.
func DefaultResNetConfig(seed int64) ResNetConfig {
	return ResNetConfig{Seed: seed, WidthMult: 1, InputSize: 224, Blocks: [4]int{3, 4, 6, 3}, Classes: 1000}
}

// BenchResNetConfig returns the reduced-width ResNet used by the benchmark
// harness: the same depth and topology, a width multiplier of 1/8, and a
// 64×64 input. See DESIGN.md §1 for why this substitution preserves the
// experiments' shape.
func BenchResNetConfig(seed int64) ResNetConfig {
	return ResNetConfig{Seed: seed, WidthMult: 0.125, InputSize: 64, Blocks: [4]int{3, 4, 6, 3}, Classes: 1000}
}

// NewResNet50 builds the full-width 224×224×3 ResNet50 (~23M parameters).
func NewResNet50(seed int64) *Model {
	return NewResNet(DefaultResNetConfig(seed))
}

// NewResNet builds a bottleneck ResNet per cfg. The topology follows the
// ResNet50 paper: 7×7 stem, max pool, four stages of bottleneck blocks with
// strided downsampling, global average pooling and a softmax classifier.
func NewResNet(cfg ResNetConfig) *Model {
	r := rand.New(rand.NewSource(cfg.Seed))
	scale := func(c int) int {
		s := int(math.Round(float64(c) * cfg.WidthMult))
		if s < 4 {
			s = 4
		}
		return s
	}
	name := "resnet50"
	if cfg.WidthMult != 1 || cfg.InputSize != 224 {
		name = fmt.Sprintf("resnet50-w%g-i%d", cfg.WidthMult, cfg.InputSize)
	}
	m := &Model{
		Name:       name,
		InputShape: []int{3, cfg.InputSize, cfg.InputSize},
		OutputSize: cfg.Classes,
	}
	stem := scale(64)
	m.addConvBNReLU(r, "stem", 3, stem, 7, 2, 3)
	m.Layers = append(m.Layers, &Layer{Kind: KindMaxPool, Name: "stem.pool", PoolSize: 3, Stride: 2, Pad: 1})

	in := stem
	stageWidth := []int{scale(64), scale(128), scale(256), scale(512)}
	for stage := 0; stage < 4; stage++ {
		width := stageWidth[stage]
		outc := width * 4
		for blk := 0; blk < cfg.Blocks[stage]; blk++ {
			stride := 1
			if blk == 0 && stage > 0 {
				stride = 2
			}
			prefix := fmt.Sprintf("stage%d.block%d", stage, blk)
			project := blk == 0 // channel count (and possibly stride) changes
			m.addBottleneck(r, prefix, in, width, outc, stride, project)
			in = outc
		}
	}
	m.Layers = append(m.Layers, &Layer{Kind: KindGlobalAvg, Name: "avgpool"})
	w, b := initDense(r, in, cfg.Classes)
	m.Layers = append(m.Layers,
		&Layer{Kind: KindDense, Name: "fc", W: w, B: b},
		&Layer{Kind: KindSoftmax, Name: "probs"})
	return m
}

func (m *Model) addConvBNReLU(r *rand.Rand, prefix string, in, out, k, stride, pad int) {
	gamma, beta, mean, variance := initBN(r, out)
	m.Layers = append(m.Layers,
		&Layer{Kind: KindConv, Name: prefix + ".conv", W: initConv(r, out, in, k, k), B: tensor.New(out), Stride: stride, Pad: pad},
		&Layer{Kind: KindBatchNorm, Name: prefix + ".bn", Gamma: gamma, Beta: beta, Mean: mean, Variance: variance, Eps: 1e-5},
		&Layer{Kind: KindReLU, Name: prefix + ".relu"})
}

// addBottleneck appends a ResNet bottleneck block: 1×1 reduce, 3×3, 1×1
// expand, plus an identity or projection shortcut.
func (m *Model) addBottleneck(r *rand.Rand, prefix string, in, width, out, stride int, project bool) {
	m.Layers = append(m.Layers, &Layer{Kind: KindSaveSkip, Name: prefix + ".skip"})
	m.addConvBNReLU(r, prefix+".a", in, width, 1, 1, 0)
	m.addConvBNReLU(r, prefix+".b", width, width, 3, stride, 1)
	gamma, beta, mean, variance := initBN(r, out)
	m.Layers = append(m.Layers,
		&Layer{Kind: KindConv, Name: prefix + ".c.conv", W: initConv(r, out, width, 1, 1), B: tensor.New(out), Stride: 1, Pad: 0},
		&Layer{Kind: KindBatchNorm, Name: prefix + ".c.bn", Gamma: gamma, Beta: beta, Mean: mean, Variance: variance, Eps: 1e-5})
	if project {
		pg, pb, pm, pv := initBN(r, out)
		m.Layers = append(m.Layers, &Layer{
			Kind: KindProjSkip, Name: prefix + ".proj",
			W: initConv(r, out, in, 1, 1), B: tensor.New(out), Stride: stride, Pad: 0,
			Gamma: pg, Beta: pb, Mean: pm, Variance: pv, Eps: 1e-5,
		})
	}
	m.Layers = append(m.Layers,
		&Layer{Kind: KindResidual, Name: prefix + ".add"},
		&Layer{Kind: KindReLU, Name: prefix + ".out"})
}
