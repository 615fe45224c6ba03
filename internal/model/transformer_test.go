package model

import (
	"errors"
	"math"
	"testing"
)

// TestTransformerShape pins the transformer builder's geometry: the
// default config validates, names itself "transformer", takes [S, D]
// token embeddings, and emits a class distribution.
func TestTransformerShape(t *testing.T) {
	m := NewTransformer(DefaultTransformerConfig(1))
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Name != "transformer" {
		t.Fatalf("default config named %q", m.Name)
	}
	cfg := DefaultTransformerConfig(1)
	if m.InputLen() != cfg.SeqLen*cfg.ModelDim || m.OutputSize != cfg.Classes {
		t.Fatalf("geometry in=%d out=%d", m.InputLen(), m.OutputSize)
	}
	small := planTestTransformer()
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	if small.Name == "transformer" {
		t.Fatal("non-default config took the default name")
	}
}

// TestTransformerFusedVsReference is the model-level tolerance
// contract: the fused kernel path (FastConv — tiled attention, one-pass
// residual+layernorm, tanh GELU) must agree with the unfused reference
// path (materialised scores, multi-pass layer norm, erf GELU) within
// 1e-3 on the output distribution, and must rank the same top class.
// Bit-identity of Plan.Forward against ForwardWith per hint set is
// pinned separately in TestPlanMatchesForward.
func TestTransformerFusedVsReference(t *testing.T) {
	m := planTestTransformer()
	const n = 3
	in := randInput(m, n, 2)
	refIn, err := m.BatchInput(append([]float32(nil), in...), n)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.ForwardWith(refIn, ExecHints{})
	if err != nil {
		t.Fatal(err)
	}
	fusedIn, err := m.BatchInput(append([]float32(nil), in...), n)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := m.ForwardWith(fusedIn, ExecHints{FastConv: true})
	if err != nil {
		t.Fatal(err)
	}
	rd, fd := ref.Data(), fused.Data()
	var maxDiff float64
	for i := range rd {
		if d := math.Abs(float64(rd[i]) - float64(fd[i])); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-3 {
		t.Errorf("fused vs reference max diff %g > 1e-3", maxDiff)
	}
	for r := 0; r < n; r++ {
		row := func(d []float32) int {
			best := 0
			for c := 1; c < m.OutputSize; c++ {
				if d[r*m.OutputSize+c] > d[r*m.OutputSize+best] {
					best = c
				}
			}
			return best
		}
		if row(rd) != row(fd) {
			t.Errorf("row %d: fused and reference argmax disagree", r)
		}
	}
}

// TestTransformerBatchInvariance pins batch invariance of the compiled
// plan: a batch-4 Forward must be bitwise identical to four batch-1
// Forwards — every per-row kernel (attention lanes, layer-norm rows,
// dense rows) handles each point independently in the same order.
func TestTransformerBatchInvariance(t *testing.T) {
	m := planTestTransformer()
	plan, err := m.Compile(ExecHints{FastConv: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	const n = 4
	in := randInput(m, n, 9)
	batched := make([]float32, n*plan.OutputLen())
	if err := plan.Forward(append([]float32(nil), in...), n, batched); err != nil {
		t.Fatal(err)
	}
	one := make([]float32, plan.OutputLen())
	for r := 0; r < n; r++ {
		single := append([]float32(nil), in[r*m.InputLen():(r+1)*m.InputLen()]...)
		if err := plan.Forward(single, 1, one); err != nil {
			t.Fatal(err)
		}
		for c, v := range one {
			if got := batched[r*plan.OutputLen()+c]; got != v {
				t.Fatalf("row %d col %d: batch-4 %v != batch-1 %v", r, c, got, v)
			}
		}
	}
}

// TestQuantRejectsTransformerKinds pins the typed rejection: both
// Calibrate and QuantizePlan refuse transformer layer kinds upfront
// with an unsupportedQuantKindError naming the model, layer, and kind —
// message pinned exactly so downstream tooling can rely on it.
func TestQuantRejectsTransformerKinds(t *testing.T) {
	m := NewTransformer(DefaultTransformerConfig(1))
	const wantMsg = `model "transformer" layer "block0.attn": int8 quantization does not support layer kind "attention" (transformer kernels run float32)`

	in := randInput(m, 1, 1)
	_, err := m.Calibrate(in, 1)
	if err == nil {
		t.Fatal("Calibrate accepted a transformer")
	}
	var uerr *unsupportedQuantKindError
	if !errors.As(err, &uerr) {
		t.Fatalf("Calibrate error %T, want *UnsupportedQuantKindError", err)
	}
	if uerr.Kind != kindAttention || uerr.Layer != "block0.attn" {
		t.Fatalf("Calibrate error fields %+v", uerr)
	}
	if err.Error() != wantMsg {
		t.Fatalf("Calibrate message\n got: %s\nwant: %s", err.Error(), wantMsg)
	}

	_, err = m.QuantizePlan(ExecHints{}, nil)
	if err == nil {
		t.Fatal("QuantizePlan accepted a transformer")
	}
	if !errors.As(err, &uerr) {
		t.Fatalf("QuantizePlan error %T, want *UnsupportedQuantKindError", err)
	}
	if err.Error() != wantMsg {
		t.Fatalf("QuantizePlan message\n got: %s\nwant: %s", err.Error(), wantMsg)
	}
}
