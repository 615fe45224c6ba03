package model

import (
	"math/rand"
	"testing"

	"crayfish/internal/tensor"
)

func benchResNetSmall(seed int64) *Model {
	cfg := BenchResNetConfig(seed)
	cfg.InputSize = 32
	cfg.Blocks = [4]int{1, 1, 1, 1}
	return NewResNet(cfg)
}

func randIn(m *Model, n int, seed int64) *tensor.Tensor {
	r := rand.New(rand.NewSource(seed))
	data := make([]float32, n*m.InputLen())
	for i := range data {
		data[i] = r.Float32()
	}
	in, err := m.BatchInput(data, n)
	if err != nil {
		panic(err)
	}
	return in
}

func TestFoldBatchNormPreservesOutputs(t *testing.T) {
	m := benchResNetSmall(3)
	folded := FoldBatchNorm(m)
	if err := folded.Validate(); err != nil {
		t.Fatal(err)
	}
	want, err := m.Forward(randIn(m, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := folded.Forward(randIn(folded, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !want.AllClose(got, 1e-3) {
		t.Fatal("folded model scores differently")
	}
}

func TestFoldBatchNormRemovesBNLayers(t *testing.T) {
	m := benchResNetSmall(3)
	folded := FoldBatchNorm(m)
	for _, l := range folded.Layers {
		if l.Kind == kindBatchNorm {
			t.Fatalf("batchnorm layer %s survived folding", l.Name)
		}
		if l.Kind == kindProjSkip && l.Gamma != nil {
			t.Fatalf("projskip %s kept its BN parameters", l.Name)
		}
	}
	if len(folded.Layers) >= len(m.Layers) {
		t.Fatalf("folded model has %d layers, original %d", len(folded.Layers), len(m.Layers))
	}
}

func TestFoldBatchNormIdempotentOnDenseModels(t *testing.T) {
	m := NewFFNN(1)
	folded := FoldBatchNorm(m)
	if len(folded.Layers) != len(m.Layers) {
		t.Fatal("dense model changed by BN folding")
	}
	want, err := m.Forward(randIn(m, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := folded.Forward(randIn(folded, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !want.AllClose(got, 0) {
		t.Fatal("dense fold changed outputs")
	}
}

func TestFastConvHintMatchesReference(t *testing.T) {
	m := benchResNetSmall(5)
	ref, err := m.Forward(randIn(m, 1, 9))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := m.ForwardWith(randIn(m, 1, 9), ExecHints{FastConv: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.AllClose(fast, 1e-3) {
		t.Fatal("FastConv output differs from reference")
	}
	// Combined hints.
	both, err := m.ForwardWith(randIn(m, 1, 9), ExecHints{FastConv: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.AllClose(both, 1e-3) {
		t.Fatal("FastConv+Workers output differs from reference")
	}
}

func TestFastConvIsFasterOnResNet(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing-sensitive")
	}
	m := NewResNet(BenchResNetConfig(1))
	in := randIn(m, 1, 3)
	// Warm both paths (builds the Winograd caches).
	if _, err := m.Forward(randIn(m, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ForwardWith(randIn(m, 1, 3), ExecHints{FastConv: true}); err != nil {
		t.Fatal(err)
	}
	// Best-of-N to suppress scheduling noise on small machines.
	slow, fast := int64(1<<62), int64(1<<62)
	for round := 0; round < 3; round++ {
		if d := timeForward(t, m, in, ExecHints{}); d < slow {
			slow = d
		}
		if d := timeForward(t, m, in, ExecHints{FastConv: true}); d < fast {
			fast = d
		}
	}
	if fast >= slow {
		t.Errorf("FastConv (%v) not faster than direct (%v)", fast, slow)
	}
}

func timeForward(t *testing.T, m *Model, in *tensor.Tensor, h ExecHints) int64 {
	t.Helper()
	const iters = 4
	start := nowNanos()
	for i := 0; i < iters; i++ {
		if _, err := m.ForwardWith(in.Clone(), h); err != nil {
			t.Fatal(err)
		}
	}
	return (nowNanos() - start) / iters
}

func TestAgreement(t *testing.T) {
	a := NewFFNN(1)
	same := NewFFNN(1)
	other := NewFFNN(42)
	inputs := make([]float32, 16*784)
	for i := range inputs {
		inputs[i] = float32(i%13) * 0.05
	}
	full, err := Agreement(a, same, inputs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if full != 1 {
		t.Fatalf("identical models agree %.2f", full)
	}
	diff, err := Agreement(a, other, inputs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if diff == 1 {
		t.Log("differently-seeded models agree fully on this probe; unusual but possible")
	}
	if _, err := Agreement(a, NewFFNNSized(1, 8, []int{4}, 2), inputs, 16); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := Agreement(a, same, inputs[:10], 16); err == nil {
		t.Fatal("short batch accepted")
	}
}
