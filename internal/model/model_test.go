package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crayfish/internal/tensor"
)

func TestFFNNStructure(t *testing.T) {
	m := NewFFNN(1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Name != "ffnn" {
		t.Fatalf("Name = %q", m.Name)
	}
	if m.InputLen() != 784 || m.OutputSize != 10 {
		t.Fatalf("input %d output %d", m.InputLen(), m.OutputSize)
	}
	// 784*32+32 + 32*32+32 + 32*32+32 + 32*10+10 = 27,562 ≈ paper's 28K.
	if got := m.ParamCount(); got != 27562 {
		t.Fatalf("ParamCount = %d, want 27562", got)
	}
}

func TestFFNNDeterministicInit(t *testing.T) {
	a, b := NewFFNN(5), NewFFNN(5)
	if a.Layers[0].W.Data()[0] != b.Layers[0].W.Data()[0] {
		t.Fatal("same seed produced different weights")
	}
	c := NewFFNN(6)
	if a.Layers[0].W.Data()[0] == c.Layers[0].W.Data()[0] {
		t.Fatal("different seeds produced identical first weight")
	}
}

func TestFFNNForwardShapesAndDistribution(t *testing.T) {
	m := NewFFNN(1)
	r := rand.New(rand.NewSource(2))
	data := make([]float32, 3*784)
	for i := range data {
		data[i] = r.Float32()
	}
	in, err := m.BatchInput(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(0) != 3 || out.Dim(1) != 10 {
		t.Fatalf("output shape %v", out.Shape())
	}
	for i := 0; i < 3; i++ {
		var s float64
		for j := 0; j < 10; j++ {
			s += float64(out.Data()[i*10+j])
		}
		if math.Abs(s-1) > 1e-4 {
			t.Fatalf("row %d probability sum %v", i, s)
		}
	}
}

func TestBatchInputErrors(t *testing.T) {
	m := NewFFNN(1)
	if _, err := m.BatchInput(make([]float32, 10), 1); err == nil {
		t.Fatal("short batch did not error")
	}
	if _, err := m.BatchInput(nil, 0); err == nil {
		t.Fatal("zero batch did not error")
	}
}

func TestFFNNSizedSweep(t *testing.T) {
	for _, hidden := range [][]int{{8}, {64, 64}, {16, 16, 16, 16}} {
		m := NewFFNNSized(1, 100, hidden, 5)
		if err := m.Validate(); err != nil {
			t.Fatalf("hidden %v: %v", hidden, err)
		}
		in, err := m.BatchInput(make([]float32, 100), 1)
		if err != nil {
			t.Fatal(err)
		}
		out, err := m.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		if out.Dim(1) != 5 {
			t.Fatalf("hidden %v: output %v", hidden, out.Shape())
		}
	}
}

func TestResNetBenchStructure(t *testing.T) {
	m := NewResNet(BenchResNetConfig(1))
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.OutputSize != 1000 {
		t.Fatalf("OutputSize = %d", m.OutputSize)
	}
	if len(m.InputShape) != 3 || m.InputShape[0] != 3 {
		t.Fatalf("InputShape = %v", m.InputShape)
	}
	// 3+4+6+3 = 16 bottleneck blocks -> 16 residual layers.
	res := 0
	for _, l := range m.Layers {
		if l.Kind == kindResidual {
			res++
		}
	}
	if res != 16 {
		t.Fatalf("residual blocks = %d, want 16", res)
	}
}

func TestResNet50ParamCount(t *testing.T) {
	m := NewResNet50(1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper reports 23M parameters for ResNet50; ours (with BN
	// statistics counted) should land in the 23M–28M window.
	n := m.ParamCount()
	if n < 23_000_000 || n > 28_000_000 {
		t.Fatalf("ResNet50 ParamCount = %d, want ≈23M", n)
	}
}

func TestResNetForward(t *testing.T) {
	cfg := BenchResNetConfig(1)
	cfg.InputSize = 32 // keep the test fast
	m := NewResNet(cfg)
	in, err := m.BatchInput(make([]float32, 3*32*32), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Data() {
		in.Data()[i] = float32(i%7) * 0.1
	}
	out, err := m.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(0) != 1 || out.Dim(1) != 1000 {
		t.Fatalf("output shape %v", out.Shape())
	}
	var s float64
	for _, v := range out.Data() {
		if math.IsNaN(float64(v)) {
			t.Fatal("NaN in resnet output")
		}
		s += float64(v)
	}
	if math.Abs(s-1) > 1e-3 {
		t.Fatalf("probabilities sum to %v", s)
	}
}

// TestWorkersPlanMatchesSequential pins the fan-out contract at model
// level: a plan whose matmul and conv rows are partitioned over a work
// pool scores the bench ResNet bit for bit like the sequential oracle.
func TestWorkersPlanMatchesSequential(t *testing.T) {
	cfg := BenchResNetConfig(3)
	cfg.InputSize = 32
	m := NewResNet(cfg)
	const n = 2
	data := make([]float32, n*m.InputLen())
	r := rand.New(rand.NewSource(9))
	for i := range data {
		data[i] = r.Float32()
	}
	for _, hints := range []ExecHints{{Workers: 4}, {Workers: 4, FastConv: true}} {
		// Layers mutate activations in place, so each run gets a fresh input.
		in, err := m.BatchInput(append([]float32(nil), data...), n)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := m.ForwardWith(in, ExecHints{FastConv: hints.FastConv})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := m.Compile(hints)
		if err != nil {
			t.Fatal(err)
		}
		par := make([]float32, n*plan.OutputLen())
		err = plan.Forward(append([]float32(nil), data...), n, par)
		plan.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range seq.Data() {
			if par[i] != w {
				t.Fatalf("%+v: output[%d] = %v with workers, %v sequential", hints, i, par[i], w)
			}
		}
	}
}

func TestForwardDeterministicProperty(t *testing.T) {
	m := NewFFNN(4)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]float32, 784)
		for i := range data {
			data[i] = r.Float32()
		}
		mk := func() *tensor.Tensor {
			in, err := m.BatchInput(append([]float32(nil), data...), 1)
			if err != nil {
				return nil
			}
			return in
		}
		a, err := m.Forward(mk())
		if err != nil {
			return false
		}
		b, err := m.Forward(mk())
		if err != nil {
			return false
		}
		return a.AllClose(b, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesMalformedModels(t *testing.T) {
	cases := []struct {
		name string
		m    *Model
	}{
		{"empty", &Model{Name: "x", InputShape: []int{4}}},
		{"empty input", &Model{Name: "x", InputShape: []int{0}, Layers: []*Layer{{Kind: kindReLU}}}},
		{"dense missing W", &Model{Name: "x", InputShape: []int{4}, Layers: []*Layer{{Kind: kindDense}}}},
		{"dense W/B mismatch", &Model{Name: "x", InputShape: []int{4}, Layers: []*Layer{{Kind: kindDense, W: tensor.New(4, 2), B: tensor.New(3)}}}},
		{"conv bad stride", &Model{Name: "x", InputShape: []int{1, 4, 4}, Layers: []*Layer{{Kind: kindConv, W: tensor.New(1, 1, 3, 3)}}}},
		{"bn missing tensors", &Model{Name: "x", InputShape: []int{1, 4, 4}, Layers: []*Layer{{Kind: kindBatchNorm}}}},
		{"pool bad size", &Model{Name: "x", InputShape: []int{1, 4, 4}, Layers: []*Layer{{Kind: kindMaxPool}}}},
		{"residual no skip", &Model{Name: "x", InputShape: []int{4}, Layers: []*Layer{{Kind: kindResidual}}}},
		{"dangling skip", &Model{Name: "x", InputShape: []int{4}, Layers: []*Layer{{Kind: kindSaveSkip}}}},
		{"unknown kind", &Model{Name: "x", InputShape: []int{4}, Layers: []*Layer{{Kind: "bogus"}}}},
	}
	for _, tc := range cases {
		if err := tc.m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted malformed model", tc.name)
		}
	}
}

func TestForwardErrorsOnBadActivationShapes(t *testing.T) {
	m := &Model{Name: "bad", InputShape: []int{4}, OutputSize: 2, Layers: []*Layer{
		{Kind: kindDense, Name: "d", W: tensor.New(5, 2), B: tensor.New(2)}, // wants 5 inputs
	}}
	in := tensor.New(1, 4)
	if _, err := m.Forward(in); err == nil {
		t.Fatal("shape-mismatched forward did not error")
	}
}

func TestWidthMultScalesParams(t *testing.T) {
	small := NewResNet(ResNetConfig{Seed: 1, WidthMult: 0.125, InputSize: 64, Blocks: [4]int{1, 1, 1, 1}, Classes: 10})
	big := NewResNet(ResNetConfig{Seed: 1, WidthMult: 0.25, InputSize: 64, Blocks: [4]int{1, 1, 1, 1}, Classes: 10})
	if small.ParamCount() >= big.ParamCount() {
		t.Fatalf("width 0.125 (%d params) not smaller than width 0.25 (%d)", small.ParamCount(), big.ParamCount())
	}
}

func BenchmarkFFNNForwardBatch1(b *testing.B) {
	m := NewFFNN(1)
	in, err := m.BatchInput(make([]float32, 784), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResNetBenchForward(b *testing.B) {
	m := NewResNet(BenchResNetConfig(1))
	in, err := m.BatchInput(make([]float32, 3*64*64), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(in); err != nil {
			b.Fatal(err)
		}
	}
}
