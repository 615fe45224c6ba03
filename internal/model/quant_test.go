package model

import (
	"fmt"
	"testing"
)

// The accuracy-drift contract (docs/QUANTIZATION.md): int8 top-1
// agreement vs the float32 reference on the seeded eval set must stay
// within these bounds. The measured agreement on the pinned seeds is
// higher (1.00 for the FFNN, ≥0.98 for the ResNet); the bounds leave
// slack for FMA/rounding differences across platforms, not for scheme
// regressions.
const (
	int8Top1AgreementFFNN   = 0.98
	int8Top1AgreementResNet = 0.95
)

// calibratedFFNN builds the quantized-plan fixture: NewFFNN(3)
// calibrated on 64 seeded points.
func calibratedFFNN(t testing.TB) (*Model, *Plan) {
	t.Helper()
	m := NewFFNN(3)
	cal, err := m.Calibrate(randInput(m, 64, 9), 64)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.QuantizePlan(ExecHints{}, cal)
	if err != nil {
		t.Fatal(err)
	}
	return m, plan
}

// calibratedResNet quantizes the BN-folded test ResNet; the returned
// model is the original (the float32 reference the contract compares
// against).
func calibratedResNet(t testing.TB) (*Model, *Plan) {
	t.Helper()
	m := planTestResNet()
	folded := FoldBatchNorm(m)
	cal, err := folded.Calibrate(randInput(m, 16, 9), 16)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := folded.QuantizePlan(ExecHints{}, cal)
	if err != nil {
		t.Fatal(err)
	}
	return m, plan
}

func TestCalibrateRecordsRanges(t *testing.T) {
	m := NewFFNN(3)
	cal, err := m.Calibrate(randInput(m, 8, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	var denseLayers []int
	for i, l := range m.Layers {
		if l.Kind == kindDense {
			denseLayers = append(denseLayers, i)
		}
	}
	if len(cal.Stats) != len(denseLayers) {
		t.Fatalf("stats for %d layers, want %d", len(cal.Stats), len(denseLayers))
	}
	for si, st := range cal.Stats {
		if st.Layer != denseLayers[si] {
			t.Fatalf("stats[%d] at layer %d, want %d", si, st.Layer, denseLayers[si])
		}
		if st.Min > st.Max {
			t.Fatalf("layer %d: min %g > max %g", st.Layer, st.Min, st.Max)
		}
		wantCh := m.Layers[st.Layer].W.Dim(0)
		if len(st.ChanMin) != wantCh || len(st.ChanMax) != wantCh {
			t.Fatalf("layer %d: %d channel ranges, want %d", st.Layer, len(st.ChanMin), wantCh)
		}
		for c := range st.ChanMin {
			if st.ChanMin[c] < st.Min || st.ChanMax[c] > st.Max {
				t.Fatalf("layer %d channel %d range [%g,%g] escapes envelope [%g,%g]",
					st.Layer, c, st.ChanMin[c], st.ChanMax[c], st.Min, st.Max)
			}
		}
	}
	if _, err := m.Calibrate([]float32{1, 2, 3}, 1); err == nil {
		t.Fatal("short calibration batch accepted")
	}
}

func TestQuantizePlanRejectsUnfoldedBatchNorm(t *testing.T) {
	m := planTestResNet()
	cal, err := FoldBatchNorm(m).Calibrate(randInput(m, 4, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.QuantizePlan(ExecHints{}, cal); err == nil {
		t.Fatal("unfolded batch norms quantized")
	}
	plan, err := FoldBatchNorm(m).QuantizePlan(ExecHints{}, cal)
	if err != nil {
		t.Fatalf("folded model rejected: %v", err)
	}
	plan.Close()
}

func TestQuantizePlanRejectsBadCalibration(t *testing.T) {
	m := NewFFNN(3)
	if _, err := m.QuantizePlan(ExecHints{}, nil); err == nil {
		t.Fatal("nil calibration accepted")
	}
	if _, err := m.QuantizePlan(ExecHints{}, &Calibration{Model: "empty"}); err == nil {
		t.Fatal("empty calibration accepted")
	}
	cal, err := m.Calibrate(randInput(m, 8, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	cal.Stats = cal.Stats[:1] // later dense layers now uncovered
	if _, err := m.QuantizePlan(ExecHints{}, cal); err == nil {
		t.Fatal("partial calibration accepted")
	}
}

// TestQPlanAgreementContract is the accuracy-drift contract: top-1
// agreement between the int8 plan and the float32 reference on the
// seeded eval set stays within the pinned bound.
func TestQPlanAgreementContract(t *testing.T) {
	cases := []struct {
		name  string
		ref   *Model
		plan  *Plan
		n     int
		bound float64
	}{}
	fm, fp := calibratedFFNN(t)
	cases = append(cases, struct {
		name  string
		ref   *Model
		plan  *Plan
		n     int
		bound float64
	}{"ffnn", fm, fp, 256, int8Top1AgreementFFNN})
	rm, rp := calibratedResNet(t)
	cases = append(cases, struct {
		name  string
		ref   *Model
		plan  *Plan
		n     int
		bound float64
	}{"resnet", rm, rp, 64, int8Top1AgreementResNet})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.plan.Close()
			agree, err := PlanAgreement(tc.ref, tc.plan, randInput(tc.ref, tc.n, 11), tc.n)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s int8 top-1 agreement: %.4f (bound %.2f)", tc.name, agree, tc.bound)
			if agree < tc.bound {
				t.Fatalf("int8 top-1 agreement %.4f below the contract bound %.2f", agree, tc.bound)
			}
		})
	}
}

// TestQPlanForwardAllocs extends the allocation regression gate to the
// quantized path: after warmup, the int8 forward pass — quantize,
// packed GEMM, bias, dequantize, plus all arena traffic — performs
// zero heap allocations.
func TestQPlanForwardAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc regression needs full-size batches")
	}
	fixtures := []struct {
		name string
		mk   func(testing.TB) (*Model, *Plan)
		ns   []int
	}{
		{"ffnn", calibratedFFNN, []int{1, 16}},
		{"resnet", calibratedResNet, []int{1, 2}},
	}
	for _, fx := range fixtures {
		m, plan := fx.mk(t)
		for _, n := range fx.ns {
			in := randInput(m, n, float32(n))
			out := make([]float32, n*plan.OutputLen())
			if err := plan.Forward(in, n, out); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if err := plan.Forward(in, n, out); err != nil {
					t.Fatal(err)
				}
			})
			if raceEnabled {
				continue
			}
			if allocs != 0 {
				t.Errorf("%s/n=%d: %v allocs/op in steady state, want 0", fx.name, n, allocs)
			}
		}
		hits, misses := plan.ArenaStats()
		if hits == 0 || misses == 0 {
			t.Errorf("%s: arena stats hits=%d misses=%d, want both > 0", fx.name, hits, misses)
		}
		plan.Close()
	}
}

// TestQPlanBatchInvariance: activation parameters are fixed at
// calibration time, so quantized scoring is row-independent — a batch
// of 8 must be bit-identical to 8 single-point calls.
func TestQPlanBatchInvariance(t *testing.T) {
	m, plan := calibratedFFNN(t)
	defer plan.Close()
	const n = 8
	in := randInput(m, n, 4)
	batch := make([]float32, n*plan.OutputLen())
	if err := plan.Forward(append([]float32(nil), in...), n, batch); err != nil {
		t.Fatal(err)
	}
	k := m.InputLen()
	single := make([]float32, plan.OutputLen())
	for i := 0; i < n; i++ {
		if err := plan.Forward(append([]float32(nil), in[i*k:(i+1)*k]...), 1, single); err != nil {
			t.Fatal(err)
		}
		for j, v := range single {
			if batch[i*plan.OutputLen()+j] != v {
				t.Fatalf("row %d output %d: batch %v != single %v", i, j, batch[i*plan.OutputLen()+j], v)
			}
		}
	}
}

// TestQPlanConcurrent exercises quantized-plan sharing across
// goroutines: per-state arenas keep the int8 scratch isolated and
// outputs bit-identical.
func TestQPlanConcurrent(t *testing.T) {
	m, plan := calibratedFFNN(t)
	defer plan.Close()
	const n = 4
	in := randInput(m, n, 5)
	want := make([]float32, n*plan.OutputLen())
	if err := plan.Forward(append([]float32(nil), in...), n, want); err != nil {
		t.Fatal(err)
	}
	const callers = 8
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			out := make([]float32, n*plan.OutputLen())
			for iter := 0; iter < 20; iter++ {
				buf := append([]float32(nil), in...)
				if err := plan.Forward(buf, n, out); err != nil {
					errs <- err
					return
				}
				for i, w := range want {
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

func BenchmarkQPlanForwardFFNN(b *testing.B) {
	m, plan := calibratedFFNN(b)
	defer plan.Close()
	benchQPlan(b, m, plan, 16)
}

func BenchmarkQPlanForwardResNet(b *testing.B) {
	m, plan := calibratedResNet(b)
	defer plan.Close()
	benchQPlan(b, m, plan, 2)
}

func benchQPlan(b *testing.B, m *Model, plan *Plan, n int) {
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

// BenchmarkQPlanAgreement times the quantized pass over the contract
// eval set and reports the measured top-1 drift as the top1_delta
// metric, which bench.sh books into BENCH_inference.json as
// int8_top1_delta.
func BenchmarkQPlanAgreement(b *testing.B) {
	m, plan := calibratedFFNN(b)
	defer plan.Close()
	const n = 256
	eval := randInput(m, n, 11)
	agree, err := PlanAgreement(m, plan, eval, n)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float32, n*plan.OutputLen())
	buf := make([]float32, len(eval))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, eval)
		if err := plan.Forward(buf, n, out); err != nil {
			b.Fatal(err)
		}
	}
	// After the loop: ResetTimer clears user-reported metrics.
	b.ReportMetric(1-agree, "top1_delta")
}

// PlanAgreement scores a compiled plan against m's reference float32
// forward pass on the same inputs and returns the fraction of points
// whose argmax predictions match — the accuracy-drift metric of the
// int8 contract (docs/QUANTIZATION.md). Both passes get their own copy
// of the inputs.
func PlanAgreement(m *Model, p *Plan, inputs []float32, n int) (float64, error) {
	refIn, err := m.BatchInput(append([]float32(nil), inputs...), n)
	if err != nil {
		return 0, err
	}
	want, err := m.Forward(refIn)
	if err != nil {
		return 0, err
	}
	got := make([]float32, n*p.OutputLen())
	if err := p.Forward(append([]float32(nil), inputs...), n, got); err != nil {
		return 0, err
	}
	cols := p.OutputLen()
	matches := 0
	for i := 0; i < n; i++ {
		row := got[i*cols : (i+1)*cols]
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		if bi == argmaxRow(want, i) {
			matches++
		}
	}
	return float64(matches) / float64(n), nil
}
