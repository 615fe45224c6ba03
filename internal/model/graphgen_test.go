package model

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"

	"crayfish/internal/tensor"
)

// Graph-differential test: the interpreter (Model.ForwardWith) is the
// oracle, and every executor derived from it — Compile, CompileUnfused,
// QuantizePlan — is checked against it on seeded random model graphs
// rather than on the three hand-built model families alone. A failure
// prints its seed; `go test ./internal/model -run TestGraphDifferential
// -graphseed N` replays exactly that graph.

var graphSeed = flag.Int64("graphseed", 0, "replay one graph of TestGraphDifferential by seed (0 = run the whole seeded set)")

// graphCount is the size of the seeded set: seeds 1..graphCount.
const graphCount = 400

// graphHintSets are the execution-hint combinations every generated
// graph is compiled under.
var graphHintSets = []ExecHints{
	{},
	{Workers: 3},
	{FastConv: true},
	{FastConv: true, Workers: 3},
}

// graphGen grows one random model graph. cur tracks the per-point dims
// of the running activation (rank 1 [F], rank 2 [S, D], rank 3
// [C, H, W]) so that every emitted layer is shape-correct by
// construction.
type graphGen struct {
	r   *rand.Rand
	m   *Model
	cur []int
	// plain graphs keep to what the int8 quantizer admits: no
	// transformer kinds, and batch norms only where FoldBatchNorm
	// folds them (directly behind their convolution).
	plain bool
}

func (g *graphGen) add(l *Layer) {
	l.Name = fmt.Sprintf("%s%d", l.Kind, len(g.m.Layers))
	g.m.Layers = append(g.m.Layers, l)
}

// randT fills a tensor with N(0, std) values.
func (g *graphGen) randT(std float64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data() {
		t.Data()[i] = float32(g.r.NormFloat64() * std)
	}
	return t
}

// around returns a length-n vector of values in [centre-0.5, centre+0.5).
func (g *graphGen) around(centre float32, n int) *tensor.Tensor {
	t := tensor.New(n)
	for i := range t.Data() {
		t.Data()[i] = centre - 0.5 + g.r.Float32()
	}
	return t
}

func (g *graphGen) chance(p float64) bool { return g.r.Float64() < p }

func (g *graphGen) dense(out int) {
	in := g.cur[len(g.cur)-1]
	g.add(&Layer{Kind: kindDense, W: g.randT(1/math.Sqrt(float64(in)), in, out), B: g.randT(0.1, out)})
	g.cur = append(append([]int(nil), g.cur[:len(g.cur)-1]...), out)
}

// convLayer builds a conv-like layer over per-point dims in, or nil if
// the geometry would leave no output.
func (g *graphGen) convLayer(kind LayerKind, in []int, oc, k, stride, pad int) (*Layer, []int) {
	oh := (in[1]+2*pad-k)/stride + 1
	ow := (in[2]+2*pad-k)/stride + 1
	if in[1]+2*pad < k || in[2]+2*pad < k {
		return nil, nil
	}
	l := &Layer{Kind: kind, W: g.randT(1/math.Sqrt(float64(in[0]*k*k)), oc, in[0], k, k), Stride: stride, Pad: pad}
	if g.chance(0.7) {
		l.B = g.randT(0.1, oc)
	}
	return l, []int{oc, oh, ow}
}

// convGeom draws a kernel edge 1–5, a stride 1–2 and a pad 0–k/2; a
// third of the draws are the Winograd-eligible 3×3 stride-1 shape.
func (g *graphGen) convGeom() (k, stride, pad int) {
	if g.chance(0.35) {
		return 3, 1, g.r.Intn(2)
	}
	k = 1 + g.r.Intn(5)
	return k, 1 + g.r.Intn(2), g.r.Intn(k/2 + 1)
}

func (g *graphGen) conv() bool {
	k, stride, pad := g.convGeom()
	l, out := g.convLayer(kindConv, g.cur, 1+g.r.Intn(5), k, stride, pad)
	if l == nil {
		return false
	}
	g.add(l)
	g.cur = out
	return true
}

func (g *graphGen) bnParams(c int) (gamma, beta, mean, variance *tensor.Tensor) {
	return g.around(1, c), g.randT(0.1, c), g.randT(0.1, c), g.around(1, c)
}

func (g *graphGen) batchNorm() {
	l := &Layer{Kind: kindBatchNorm, Eps: 1e-5}
	l.Gamma, l.Beta, l.Mean, l.Variance = g.bnParams(g.cur[0])
	g.add(l)
}

func (g *graphGen) layerNorm() {
	d := g.cur[len(g.cur)-1]
	g.add(&Layer{Kind: kindLayerNorm, Gamma: g.around(1, d), Beta: g.randT(0.1, d), Eps: 1e-5})
}

func (g *graphGen) maxPool() bool {
	k := 1 + g.r.Intn(3)
	stride, pad := 1+g.r.Intn(2), g.r.Intn(k/2+1)
	oh := (g.cur[1]+2*pad-k)/stride + 1
	ow := (g.cur[2]+2*pad-k)/stride + 1
	if g.cur[1]+2*pad < k || g.cur[2]+2*pad < k {
		return false
	}
	g.add(&Layer{Kind: kindMaxPool, PoolSize: k, Stride: stride, Pad: pad})
	g.cur = []int{g.cur[0], oh, ow}
	return true
}

// attention emits the packed q|k|v projection and the attention op
// over a rank-2 [S, D] activation.
func (g *graphGen) attention() {
	heads := 1 + g.r.Intn(3)
	d := heads * (1 + g.r.Intn(4))
	g.dense(3 * d)
	g.add(&Layer{Kind: kindAttention, Heads: heads})
	g.cur = []int{g.cur[0], d}
}

// inPlace emits one operator that writes its input buffer.
func (g *graphGen) inPlace() {
	switch pick := g.r.Intn(5); {
	case pick == 0 && !g.plain:
		g.add(&Layer{Kind: kindGELU})
	case pick == 1 && !g.plain:
		g.layerNorm()
	case pick == 2 && !g.plain && len(g.cur) == 3:
		g.batchNorm()
	case pick == 3 && len(g.cur) < 3:
		g.add(&Layer{Kind: kindSoftmax})
	default:
		g.add(&Layer{Kind: kindReLU})
	}
}

// skipBlock emits save-skip … residual around a body: nested blocks,
// a projection shortcut (k×k, strided, with and without its own batch
// norm, sometimes directly after the save so the skip still aliases
// the activation), or an in-place-only body where skip and activation
// stay the same tensor. What follows the residual decides whether the
// FastConv residual→layer-norm peephole fires.
func (g *graphGen) skipBlock(depth int) {
	g.add(&Layer{Kind: kindSaveSkip})
	saved := append([]int(nil), g.cur...)
	switch {
	case g.chance(0.1):
		g.add(&Layer{Kind: kindReLU}) // skip == activation at the residual
	case len(g.cur) == 3:
		g.convBody(saved, depth)
	default:
		w := g.cur[len(g.cur)-1]
		g.dense(1 + g.r.Intn(8))
		if !g.plain && g.chance(0.5) {
			g.add(&Layer{Kind: kindGELU})
		} else {
			g.add(&Layer{Kind: kindReLU})
		}
		if depth < 2 && g.chance(0.3) {
			g.skipBlock(depth + 1)
		}
		g.dense(w)
	}
	g.add(&Layer{Kind: kindResidual})
	if g.plain {
		if g.chance(0.5) {
			g.add(&Layer{Kind: kindReLU})
		}
		return
	}
	switch g.r.Intn(4) {
	case 0:
		g.layerNorm() // adjacent: the peephole fires under FastConv
	case 1:
		g.add(&Layer{Kind: kindReLU})
		g.layerNorm() // separated: it must not
	case 2:
		g.add(&Layer{Kind: kindReLU})
	}
}

// convBody is a skip block's body over an NCHW activation: either a
// shape-preserving conv (identity shortcut) or a reshaping conv whose
// geometry the projection shortcut repeats so the dims meet again.
// Nested blocks (depth > 0) always preserve shape, so the enclosing
// block's projection still lands on the running dims.
func (g *graphGen) convBody(saved []int, depth int) {
	k, stride, pad := g.convGeom()
	oc := 1 + g.r.Intn(5)
	if depth > 0 || g.chance(0.3) {
		k = 1 + 2*g.r.Intn(3) // 1, 3, 5 at stride 1 with "same" padding
		stride, pad, oc = 1, k/2, saved[0]
	}
	main, out := g.convLayer(kindConv, saved, oc, k, stride, pad)
	if main == nil {
		g.add(&Layer{Kind: kindReLU})
		return
	}
	proj, _ := g.convLayer(kindProjSkip, saved, oc, k, stride, pad)
	if g.chance(0.5) {
		proj.Eps = 1e-5
		proj.Gamma, proj.Beta, proj.Mean, proj.Variance = g.bnParams(oc)
	}
	identity := sameDims(out, saved) && g.chance(0.6)
	projFirst := !identity && g.chance(0.3)
	if projFirst {
		g.add(proj)
	}
	g.add(main)
	g.cur = out
	if g.chance(0.5) {
		g.batchNorm()
	}
	g.add(&Layer{Kind: kindReLU})
	if depth < 2 && g.chance(0.3) {
		g.skipBlock(depth + 1)
	}
	if !identity && !projFirst {
		g.add(proj)
	}
}

// step emits one random operator (or block) valid for the current
// activation rank.
func (g *graphGen) step() {
	switch len(g.cur) {
	case 3:
		switch g.r.Intn(8) {
		case 0, 1:
			if !g.conv() {
				g.inPlace()
			}
		case 2:
			if g.plain && !g.conv() {
				g.inPlace()
			} else {
				g.batchNorm()
			}
		case 3:
			if !g.maxPool() {
				g.inPlace()
			}
		case 4, 5:
			g.skipBlock(0)
		case 6:
			g.inPlace()
		default:
			if g.chance(0.5) {
				g.add(&Layer{Kind: kindGlobalAvg})
				g.cur = g.cur[:1]
			} else {
				g.add(&Layer{Kind: kindFlatten})
				g.cur = []int{g.cur[0] * g.cur[1] * g.cur[2]}
			}
		}
	case 2:
		switch pick := g.r.Intn(6); {
		case pick < 2 && !g.plain:
			g.attention()
		case pick < 3:
			g.dense(1 + g.r.Intn(8))
		case pick < 5:
			g.skipBlock(0)
		default:
			g.inPlace()
		}
	default:
		switch g.r.Intn(5) {
		case 0, 1:
			g.dense(1 + g.r.Intn(12))
		case 2, 3:
			g.skipBlock(0)
		default:
			g.inPlace()
		}
	}
}

// genGraph builds the graph, batch size and input batch for one seed.
func genGraph(seed int64) (*Model, int, []float32) {
	g := &graphGen{r: rand.New(rand.NewSource(seed)), m: &Model{Name: fmt.Sprintf("graph-%d", seed)}}
	g.plain = g.chance(0.45)
	switch g.r.Intn(3) {
	case 0:
		g.cur = []int{1 + g.r.Intn(4), 4 + g.r.Intn(6), 4 + g.r.Intn(6)}
	case 1:
		g.cur = []int{1 + g.r.Intn(5), 1 + g.r.Intn(8)}
	default:
		g.cur = []int{1 + g.r.Intn(12)}
	}
	g.m.InputShape = append([]int(nil), g.cur...)
	if g.chance(0.3) {
		g.inPlace() // first op writes the caller's input buffer
	}
	for steps := 2 + g.r.Intn(7); steps > 0; steps-- {
		g.step()
	}
	if len(g.cur) == 3 && g.chance(0.5) {
		g.add(&Layer{Kind: kindGlobalAvg})
		g.cur = g.cur[:1]
	}
	if len(g.cur) > 1 {
		n := 1
		for _, d := range g.cur {
			n *= d
		}
		g.add(&Layer{Kind: kindFlatten})
		g.cur = []int{n}
	}
	g.m.OutputSize = 1 + g.r.Intn(6)
	g.dense(g.m.OutputSize)
	if g.chance(0.8) {
		g.add(&Layer{Kind: kindSoftmax})
	}
	n := 1 + g.r.Intn(5)
	in := make([]float32, n*g.m.InputLen())
	for i := range in {
		in[i] = 2*g.r.Float32() - 1
	}
	return g.m, n, in
}

// describe renders a graph for a failure message.
func describe(m *Model) string {
	var b strings.Builder
	fmt.Fprintf(&b, "input %v:", m.InputShape)
	for _, l := range m.Layers {
		fmt.Fprintf(&b, " %s", l.Kind)
		if l.W != nil {
			fmt.Fprintf(&b, "%v", l.W.Shape())
		}
		if l.Kind == kindConv || l.Kind == kindProjSkip || l.Kind == kindMaxPool {
			fmt.Fprintf(&b, "/s%dp%d", l.Stride, l.Pad)
		}
	}
	return b.String()
}

// oracle runs the interpreter on a private copy of the inputs.
func oracle(m *Model, in []float32, n int, hints ExecHints) ([]float32, error) {
	x, err := m.BatchInput(append([]float32(nil), in...), n)
	if err != nil {
		return nil, err
	}
	y, err := m.ForwardWith(x, hints)
	if err != nil {
		return nil, err
	}
	return y.Data(), nil
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// planTwice runs two consecutive Forward calls on one plan, each on a
// fresh copy of the inputs (the plan may scratch them), and reports
// whether the second — served from recycled arena buffers — repeated
// the first bit for bit.
func planTwice(p *Plan, in []float32, n int) (out []float32, stable bool, err error) {
	out = make([]float32, n*p.OutputLen())
	if err := p.Forward(append([]float32(nil), in...), n, out); err != nil {
		return nil, false, err
	}
	again := make([]float32, len(out))
	if err := p.Forward(append([]float32(nil), in...), n, again); err != nil {
		return nil, false, err
	}
	return out, sameBits(out, again), nil
}

// int8 drift bounds for generated graphs. docs/QUANTIZATION.md states
// the contract as top-1 agreement with the float32 reference (≥ 0.95
// for conv models); on graphs this small a single point decides little,
// so the whole seeded set is held to that figure in aggregate and each
// graph additionally to a bound on its worst output error relative to
// the reference's largest output — loose enough for 8-bit rounding
// through a dozen random layers, far below what a wrong zero point,
// scale or bias fold produces.
const (
	graphQuantAgreement = 0.95
	graphQuantMaxRelErr = 0.15
)

// checkGraph runs every differential assertion for one seed and
// returns the int8 top-1 tallies (0, 0 when the graph is not
// quantizable).
func checkGraph(t *testing.T, seed int64) (qMatches, qPoints int) {
	m, n, in := genGraph(seed)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("seed %d (replay: go test ./internal/model -run TestGraphDifferential -graphseed %d): %s\n  n=%d %s",
			seed, seed, fmt.Sprintf(format, args...), n, describe(m))
	}
	defer func() {
		if r := recover(); r != nil {
			fail("panic: %v\n%s", r, debug.Stack())
		}
	}()
	if err := m.Validate(); err != nil {
		fail("Validate rejected a well-formed graph: %v", err)
		return
	}
	for _, hints := range graphHintSets {
		want, err := oracle(m, in, n, hints)
		if err != nil {
			fail("%+v: oracle: %v", hints, err)
			return
		}
		for _, c := range []struct {
			name    string
			compile func(ExecHints) (*Plan, error)
		}{{"Compile", m.Compile}, {"CompileUnfused", m.CompileUnfused}} {
			p, err := c.compile(hints)
			if err != nil {
				fail("%+v: %s rejected a graph Validate accepts: %v", hints, c.name, err)
				return
			}
			got, stable, err := planTwice(p, in, n)
			p.Close()
			if err != nil {
				fail("%+v: %s plan: %v", hints, c.name, err)
				return
			}
			if !sameBits(got, want) {
				fail("%+v: %s plan differs from the oracle", hints, c.name)
				return
			}
			if !stable {
				fail("%+v: %s plan's second Forward differs from its first (arena reuse)", hints, c.name)
				return
			}
		}
	}

	folded := FoldBatchNorm(m)
	if !quantizable(folded) {
		return 0, 0
	}
	ref, err := oracle(folded, in, n, ExecHints{})
	if err != nil {
		fail("oracle on the BN-folded graph: %v", err)
		return
	}
	cal, err := folded.Calibrate(in, n)
	if err != nil {
		fail("Calibrate: %v", err)
		return
	}
	qp, err := folded.QuantizePlan(ExecHints{Workers: 3}, cal)
	if err != nil {
		fail("QuantizePlan: %v", err)
		return
	}
	got, stable, err := planTwice(qp, in, n)
	qp.Close()
	if err != nil {
		fail("int8 plan: %v", err)
		return
	}
	if !stable {
		fail("int8 plan's second Forward differs from its first (arena reuse)")
	}
	var maxRef, maxErr float64
	for i, w := range ref {
		maxRef = math.Max(maxRef, math.Abs(float64(w)))
		maxErr = math.Max(maxErr, math.Abs(float64(got[i])-float64(w)))
	}
	if rel := maxErr / math.Max(maxRef, 1e-3); !(rel <= graphQuantMaxRelErr) {
		fail("int8 plan drifts %.3f of the reference's largest output (bound %.2f)", rel, graphQuantMaxRelErr)
	}
	cols := qp.OutputLen()
	for i := 0; i < n; i++ {
		if argmax(got[i*cols:(i+1)*cols]) == argmax(ref[i*cols:(i+1)*cols]) {
			qMatches++
		}
	}
	return qMatches, n
}

// quantizable reports whether QuantizePlan must accept the BN-folded
// graph: no transformer kinds (checkQuantKinds) and no batch norm left
// standing — FoldBatchNorm folds only a norm that directly follows its
// convolution, and QuantizePlan refuses the rest by contract.
func quantizable(folded *Model) bool {
	if folded.checkQuantKinds() != nil {
		return false
	}
	for _, l := range folded.Layers {
		if l.Kind == kindBatchNorm || (l.Kind == kindProjSkip && l.Gamma != nil) {
			return false
		}
	}
	return true
}

func argmax(row []float32) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// TestGraphDifferential asserts, for every seeded random graph and
// every hint set: oracle ≡ Compile ≡ CompileUnfused bit for bit, a
// plan's second Forward ≡ its first, Validate and Compile both accept,
// and — where the quantizer admits the BN-folded graph — the int8 plan
// stays inside the drift bounds above.
func TestGraphDifferential(t *testing.T) {
	if *graphSeed != 0 {
		m, n, _ := genGraph(*graphSeed)
		t.Logf("seed %d: n=%d %s", *graphSeed, n, describe(m))
		checkGraph(t, *graphSeed)
		return
	}
	matches, points, quantized := 0, 0, 0
	for seed := int64(1); seed <= graphCount; seed++ {
		qm, qn := checkGraph(t, seed)
		matches, points = matches+qm, points+qn
		if qn > 0 {
			quantized++
		}
	}
	if quantized < graphCount/4 {
		t.Errorf("only %d of %d graphs were quantizable; the generator no longer covers the int8 arm", quantized, graphCount)
	}
	t.Logf("%d graphs × %d hint sets, %d quantizable, int8 top-1 agreement %d/%d", graphCount, len(graphHintSets), quantized, matches, points)
	if got := float64(matches) / float64(points); got < graphQuantAgreement {
		t.Errorf("int8 top-1 agreement %.4f over %d points of %d graphs, contract %.2f", got, points, quantized, graphQuantAgreement)
	}
}

// TestGraphGeneratorCoverage keeps the generator honest: the seeded set
// must actually contain the shapes the differential test exists for.
func TestGraphGeneratorCoverage(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= graphCount; seed++ {
		m, _, _ := genGraph(seed)
		depth, maxDepth := 0, 0
		for i, l := range m.Layers {
			seen[string(l.Kind)]++
			var next LayerKind
			if i+1 < len(m.Layers) {
				next = m.Layers[i+1].Kind
			}
			switch l.Kind {
			case kindConv, kindProjSkip:
				if l.Stride == 1 && l.W.Dim(2) == 3 {
					seen["winograd-eligible "+string(l.Kind)]++
				}
				if l.Stride > 1 {
					seen["strided "+string(l.Kind)]++
				}
				if l.B == nil {
					seen["bias-free "+string(l.Kind)]++
				}
				if l.Kind == kindProjSkip && l.Gamma != nil {
					seen["projskip+bn"]++
				}
				if l.Kind == kindProjSkip && l.Gamma == nil {
					seen["projskip-bn"]++
				}
				if l.Kind == kindProjSkip && m.Layers[i-1].Kind == kindSaveSkip {
					seen["projskip on aliased skip"]++
				}
			case kindSaveSkip:
				if depth++; depth > maxDepth {
					maxDepth = depth
				}
			case kindResidual:
				depth--
				if next == kindLayerNorm {
					seen["residual→layernorm"]++
				}
				if next == kindReLU && i+2 < len(m.Layers) && m.Layers[i+2].Kind == kindLayerNorm {
					seen["residual, relu, layernorm"]++
				}
				if i >= 2 && m.Layers[i-1].Kind == kindReLU && m.Layers[i-2].Kind == kindSaveSkip {
					seen["residual on aliased skip"]++
				}
			}
			if i == 0 && (l.Kind == kindReLU || l.Kind == kindGELU || l.Kind == kindSoftmax || l.Kind == kindBatchNorm || l.Kind == kindLayerNorm) {
				seen["in-place first op"]++
			}
		}
		if maxDepth > 1 {
			seen["nested skips"]++
		}
	}
	for _, want := range []string{
		"dense", "conv", "batchnorm", "maxpool", "globalavg", "flatten", "saveskip", "projskip", "residual",
		"attention", "layernorm", "gelu", "relu", "softmax",
		"winograd-eligible conv", "winograd-eligible projskip", "strided conv", "strided projskip", "bias-free conv",
		"projskip+bn", "projskip-bn", "projskip on aliased skip", "residual on aliased skip", "nested skips",
		"residual→layernorm", "residual, relu, layernorm", "in-place first op",
	} {
		if seen[want] < 3 {
			t.Errorf("the seeded set holds %d × %q, want at least 3", seen[want], want)
		}
	}
}

// TestGraphRejection mutates seeded graphs and checks the executors
// agree on what they refuse. Structural damage must be refused by
// Validate and, with it, by both compilers; damage only shapes reveal
// passes Validate and must be refused by Compile at compile time and by
// the oracle with an error (not a panic) at run time.
func TestGraphRejection(t *testing.T) {
	structural := []struct {
		name  string
		apply func(m *Model) bool
	}{
		{"unknown kind", func(m *Model) bool {
			m.Layers = append(m.Layers, &Layer{Kind: "bogus", Name: "bogus"})
			return true
		}},
		{"dangling save-skip", func(m *Model) bool {
			m.Layers = append(m.Layers, &Layer{Kind: kindSaveSkip, Name: "dangling"})
			return true
		}},
		{"residual without a skip", func(m *Model) bool {
			m.Layers = append([]*Layer{{Kind: kindResidual, Name: "orphan"}}, m.Layers...)
			return true
		}},
		{"dense without bias", mutateFirst(kindDense, func(l *Layer) { l.B = nil })},
		{"conv with zero stride", mutateFirst(kindConv, func(l *Layer) { l.Stride = 0 })},
		{"batchnorm without variance", mutateFirst(kindBatchNorm, func(l *Layer) { l.Variance = nil })},
		{"maxpool of size zero", mutateFirst(kindMaxPool, func(l *Layer) { l.PoolSize = 0 })},
		{"attention without heads", mutateFirst(kindAttention, func(l *Layer) { l.Heads = 0 })},
		{"layernorm without gamma", mutateFirst(kindLayerNorm, func(l *Layer) { l.Gamma = nil })},
		{"projskip with partial batchnorm", mutateFirst(kindProjSkip, func(l *Layer) { l.Gamma, l.Beta, l.Mean, l.Variance = tensor.New(l.W.Dim(0)), nil, nil, nil })},
	}
	shape := []struct {
		name  string
		apply func(m *Model) bool
	}{
		{"dense one input too wide", mutateFirst(kindDense, func(l *Layer) { l.W = tensor.New(l.W.Dim(0)+1, l.W.Dim(1)) })},
		{"conv one channel too deep", mutateFirst(kindConv, func(l *Layer) { l.W = tensor.New(l.W.Dim(0), l.W.Dim(1)+1, l.W.Dim(2), l.W.Dim(3)) })},
		{"layernorm one lane too wide", mutateFirst(kindLayerNorm, func(l *Layer) {
			l.Gamma, l.Beta = tensor.New(l.Gamma.Len()+1), tensor.New(l.Gamma.Len()+1)
		})},
		{"projskip without a skip", func(m *Model) bool {
			w := tensor.New(1, 1, 1, 1)
			m.Layers = append([]*Layer{{Kind: kindProjSkip, Name: "orphan", W: w, Stride: 1}}, m.Layers...)
			return true
		}},
	}
	applied := map[string]int{}
	for seed := int64(1); seed <= 60; seed++ {
		for _, mut := range structural {
			m, _, _ := genGraph(seed)
			if !mut.apply(m) {
				continue
			}
			applied[mut.name]++
			if m.Validate() == nil {
				t.Errorf("seed %d, %s: Validate accepted: %s", seed, mut.name, describe(m))
			}
			if p, err := m.Compile(ExecHints{}); err == nil {
				p.Close()
				t.Errorf("seed %d, %s: Compile accepted: %s", seed, mut.name, describe(m))
			}
			if p, err := m.CompileUnfused(ExecHints{FastConv: true}); err == nil {
				p.Close()
				t.Errorf("seed %d, %s: CompileUnfused accepted: %s", seed, mut.name, describe(m))
			}
		}
		for _, mut := range shape {
			m, n, in := genGraph(seed)
			if !mut.apply(m) {
				continue
			}
			applied[mut.name]++
			if err := m.Validate(); err != nil {
				t.Errorf("seed %d, %s: Validate is not expected to see shapes, got %v", seed, mut.name, err)
			}
			for _, hints := range graphHintSets {
				if p, err := m.Compile(hints); err == nil {
					p.Close()
					t.Errorf("seed %d, %s, %+v: Compile accepted: %s", seed, mut.name, hints, describe(m))
				}
				if _, err := oracle(m, in, n, hints); err == nil {
					t.Errorf("seed %d, %s, %+v: the oracle accepted: %s", seed, mut.name, hints, describe(m))
				}
			}
		}
	}
	for _, mut := range append(structural, shape...) {
		if applied[mut.name] == 0 {
			t.Errorf("mutation %q never found a layer to damage", mut.name)
		}
	}
}

// mutateFirst damages the first layer of the given kind, reporting
// whether the graph has one.
func mutateFirst(kind LayerKind, damage func(*Layer)) func(*Model) bool {
	return func(m *Model) bool {
		for _, l := range m.Layers {
			if l.Kind == kind {
				damage(l)
				return true
			}
		}
		return false
	}
}
