package model

import (
	"fmt"
	"testing"

	"crayfish/internal/tensor"
)

// planTestResNet is a small-but-complete ResNet: every op kind the plan
// compiles (conv, batchnorm, maxpool, globalavg, save/proj-skip,
// residual, dense, softmax) at a size that keeps -race runs fast.
func planTestResNet() *Model {
	return NewResNet(ResNetConfig{Seed: 7, WidthMult: 0.125, InputSize: 32, Blocks: [4]int{1, 1, 1, 1}, Classes: 10})
}

// planTestTransformer is a small-but-complete transformer: fused QKV
// dense, attention, residual+layernorm, and GELU at a size that keeps
// -race runs fast.
func planTestTransformer() *Model {
	return NewTransformer(TransformerConfig{Seed: 7, SeqLen: 8, ModelDim: 16, Heads: 4, FFNDim: 32, Blocks: 2, Classes: 10})
}

func randInput(m *Model, n int, seed float32) []float32 {
	in := make([]float32, n*m.InputLen())
	v := seed
	for i := range in {
		v = v*1664525 + 1013904223 // LCG keeps it deterministic and cheap
		in[i] = float32(int32(v)%97) / 97
	}
	return in
}

// TestPlanMatchesForward asserts the compiled plan is bit-identical to
// the uncompiled reference pass under every hint combination, for all
// three model families and several batch sizes.
func TestPlanMatchesForward(t *testing.T) {
	models := []*Model{NewFFNN(3), planTestResNet(), planTestTransformer()}
	hintSets := []ExecHints{
		{},
		{Workers: 4},
		{FastConv: true},
		{FastConv: true, Workers: 4},
	}
	for _, m := range models {
		for _, hints := range hintSets {
			name := fmt.Sprintf("%s/workers=%d/fast=%v", m.Name, hints.Workers, hints.FastConv)
			t.Run(name, func(t *testing.T) {
				plan, err := m.Compile(hints)
				if err != nil {
					t.Fatal(err)
				}
				defer plan.Close()
				for _, n := range []int{1, 3, 8} {
					in := randInput(m, n, float32(n))
					// The reference pass may mutate its input in place;
					// feed both passes their own copy.
					refIn, err := m.BatchInput(append([]float32(nil), in...), n)
					if err != nil {
						t.Fatal(err)
					}
					want, err := m.ForwardWith(refIn, hints)
					if err != nil {
						t.Fatal(err)
					}
					got := make([]float32, n*plan.OutputLen())
					if err := plan.Forward(in, n, got); err != nil {
						t.Fatal(err)
					}
					if plan.OutputLen() != m.OutputSize {
						t.Fatalf("plan output len %d, model %d", plan.OutputLen(), m.OutputSize)
					}
					for i, w := range want.Data() {
						if got[i] != w { // bit-identical, not approximately equal
							t.Fatalf("n=%d output[%d]: plan %v != reference %v", n, i, got[i], w)
						}
					}
				}
			})
		}
	}
}

// TestPlanCompileErrors checks the compiler rejects malformed graphs
// instead of deferring to runtime panics.
func TestPlanCompileErrors(t *testing.T) {
	m := NewFFNN(1)
	bad := &Model{
		Name:       "bad",
		InputShape: []int{4},
		OutputSize: 2,
		Layers: []*Layer{
			{Kind: kindResidual, Name: "r"},
		},
	}
	if _, err := bad.Compile(ExecHints{}); err == nil {
		t.Fatal("residual without skip compiled")
	}
	mismatch := &Model{
		Name:       "mismatch",
		InputShape: []int{4},
		OutputSize: 2,
		Layers:     []*Layer{{Kind: kindDense, Name: "d", W: tensor.New(5, 2), B: tensor.New(2)}},
	}
	if _, err := mismatch.Compile(ExecHints{}); err == nil {
		t.Fatal("dense width mismatch compiled")
	}
	if _, err := m.Compile(ExecHints{}); err != nil {
		t.Fatalf("valid model failed to compile: %v", err)
	}
}

// TestPlanForwardAllocs is the allocation regression gate: after one
// warmup call per batch size, Plan.Forward performs zero heap
// allocations — for FFNN, ResNet, and the transformer, batch 1 and 64,
// single- and multi-worker. Run under -race the assertion stays, but
// the race runtime itself allocates, so the exact-zero check is
// skipped.
func TestPlanForwardAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc regression needs full-size batches")
	}
	models := []*Model{NewFFNN(3), planTestResNet(), planTestTransformer()}
	hintSets := []ExecHints{
		{},
		{FastConv: true, Workers: 4},
	}
	for _, m := range models {
		for _, hints := range hintSets {
			plan, err := m.Compile(hints)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 64} {
				name := fmt.Sprintf("%s/workers=%d/n=%d", m.Name, hints.Workers, n)
				in := randInput(m, n, float32(n))
				out := make([]float32, n*plan.OutputLen())
				// Warmup: builds the state, fills the arena.
				if err := plan.Forward(in, n, out); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(3, func() {
					if err := plan.Forward(in, n, out); err != nil {
						t.Fatal(err)
					}
				})
				if raceEnabled {
					continue // race runtime allocates shadow memory
				}
				if allocs != 0 {
					t.Errorf("%s: %v allocs/op in steady state, want 0", name, allocs)
				}
			}
			hits, misses := plan.ArenaStats()
			if hits == 0 || misses == 0 {
				t.Errorf("%s: arena stats hits=%d misses=%d, want both > 0 after warmup+steady state", m.Name, hits, misses)
			}
			plan.Close()
		}
	}
}

// TestPlanConcurrent exercises plan sharing across goroutines: each
// caller gets its own execution state, results stay bit-identical.
func TestPlanConcurrent(t *testing.T) {
	m := planTestResNet()
	plan, err := m.Compile(ExecHints{FastConv: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	const n = 2
	in := randInput(m, n, 5)
	refIn, err := m.BatchInput(append([]float32(nil), in...), n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.ForwardWith(refIn, ExecHints{FastConv: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			out := make([]float32, n*plan.OutputLen())
			for iter := 0; iter < 20; iter++ {
				buf := append([]float32(nil), in...) // the plan may scratch its input
				if err := plan.Forward(buf, n, out); err != nil {
					errs <- err
					return
				}
				for i, w := range want.Data() {
					if out[i] != w {
						errs <- fmt.Errorf("iter %d output[%d]: %v != %v", iter, i, out[i], w)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < callers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkPlanForwardFFNN(b *testing.B) {
	benchPlan(b, NewFFNN(3), ExecHints{}, 16)
}

func BenchmarkPlanForwardResNet(b *testing.B) {
	benchPlan(b, planTestResNet(), ExecHints{FastConv: true}, 2)
}

// BenchmarkPlanForwardTransformer books transformer_ns_op in
// BENCH_inference.json (see scripts/bench.sh): the default-config
// transformer through its compiled plan on the fused kernel path.
func BenchmarkPlanForwardTransformer(b *testing.B) {
	benchPlan(b, NewTransformer(DefaultTransformerConfig(1)), ExecHints{FastConv: true}, 1)
}

// BenchmarkUnplannedForwardResNet is the allocating baseline the plan
// is measured against (see scripts/bench.sh).
func BenchmarkUnplannedForwardResNet(b *testing.B) {
	m := planTestResNet()
	n := 2
	in := randInput(m, n, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := m.BatchInput(append([]float32(nil), in...), n)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.ForwardWith(x, ExecHints{FastConv: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPlan(b *testing.B, m *Model, hints ExecHints, n int) {
	plan, err := m.Compile(hints)
	if err != nil {
		b.Fatal(err)
	}
	defer plan.Close()
	in := randInput(m, n, 1)
	out := make([]float32, n*plan.OutputLen())
	if err := plan.Forward(in, n, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Forward(in, n, out); err != nil {
			b.Fatal(err)
		}
	}
}
