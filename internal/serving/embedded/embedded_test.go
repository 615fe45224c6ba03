package embedded

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"crayfish/internal/gpu"
	"crayfish/internal/model"
	"crayfish/internal/modelfmt"
)

// loadRuntime builds a runtime of the given kind with the FFNN loaded
// through its native storage format.
func loadRuntime(t *testing.T, kind Kind, m *model.Model) *Runtime {
	t.Helper()
	r, err := New(kind, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := modelfmt.Encode(r.Format(), m)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Load(data); err != nil {
		t.Fatal(err)
	}
	return r
}

func randBatch(m *model.Model, n int, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float32, n*m.InputLen())
	for i := range out {
		out[i] = r.Float32()
	}
	return out
}

func TestAllRuntimesMatchReferenceForward(t *testing.T) {
	m := model.NewFFNN(1)
	inputs := randBatch(m, 4, 7)
	in, err := m.BatchInput(append([]float32(nil), inputs...), 4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range Kinds() {
		r := loadRuntime(t, kind, m)
		got, err := r.Score(inputs, 4)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(got) != 4*10 {
			t.Fatalf("%s: output length %d", kind, len(got))
		}
		for i, v := range got {
			d := float64(v) - float64(ref.Data()[i])
			if d > 1e-4 || d < -1e-4 {
				t.Fatalf("%s: output %d differs: %v vs %v", kind, i, v, ref.Data()[i])
			}
		}
	}
}

func TestRuntimesMatchOnConvModel(t *testing.T) {
	cfg := model.BenchResNetConfig(2)
	cfg.InputSize = 32
	cfg.Blocks = [4]int{1, 1, 1, 1}
	m := model.NewResNet(cfg)
	inputs := randBatch(m, 1, 3)
	var ref []float32
	for _, kind := range Kinds() {
		r := loadRuntime(t, kind, m)
		got, err := r.Score(inputs, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			d := float64(got[i]) - float64(ref[i])
			if d > 1e-4 || d < -1e-4 {
				t.Fatalf("%s: output %d differs across runtimes", kind, i)
			}
		}
	}
}

func TestScratchReuseAcrossBatchSizes(t *testing.T) {
	m := model.NewFFNN(1)
	r := loadRuntime(t, ONNX, m)
	for _, n := range []int{1, 8, 1, 32, 8} {
		out, err := r.Score(randBatch(m, n, int64(n)), n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(out) != n*10 {
			t.Fatalf("n=%d: output %d", n, len(out))
		}
	}
}

func TestConcurrentScoreIsSafe(t *testing.T) {
	m := model.NewFFNN(1)
	for _, kind := range Kinds() {
		r := loadRuntime(t, kind, m)
		inputs := randBatch(m, 2, 11)
		want, err := r.Score(inputs, 2)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					got, err := r.Score(inputs, 2)
					if err != nil {
						errs <- err
						return
					}
					for j := range got {
						if got[j] != want[j] {
							errs <- err
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s: concurrent score: %v", kind, err)
		}
	}
}

func TestScoreValidation(t *testing.T) {
	m := model.NewFFNN(1)
	r := loadRuntime(t, ONNX, m)
	if _, err := r.Score(make([]float32, 10), 1); err == nil {
		t.Fatal("short batch accepted")
	}
	if _, err := r.Score(nil, 0); err == nil {
		t.Fatal("zero batch accepted")
	}
	fresh, err := New(SavedModel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Score(make([]float32, 784), 1); err == nil {
		t.Fatal("score before load accepted")
	}
}

func TestNewUnknownKind(t *testing.T) {
	if _, err := New("tensorrt", nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestLoadRejectsWrongFormat(t *testing.T) {
	m := model.NewFFNN(1)
	onnxBytes, err := modelfmt.Encode(modelfmt.ONNX, m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(dl4j, nil) // wants H5
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Load(onnxBytes); err == nil {
		t.Fatal("DL4J loaded ONNX bytes")
	}
}

func TestRuntimeMetadata(t *testing.T) {
	m := model.NewFFNN(1)
	r := loadRuntime(t, ONNX, m)
	if r.Name() != "onnx" || r.InputLen() != 784 || r.OutputSize() != 10 {
		t.Fatalf("metadata: %s/%d/%d", r.Name(), r.InputLen(), r.OutputSize())
	}
	if r.Model() == nil {
		t.Fatal("Model() nil after load")
	}
	empty, err := New(ONNX, nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.InputLen() != 0 || empty.OutputSize() != 0 {
		t.Fatal("unloaded runtime reports sizes")
	}
}

func TestGPUDeviceProducesSameOutputs(t *testing.T) {
	m := model.NewFFNN(1)
	cpuRT := loadRuntime(t, ONNX, m)
	gpuRT, err := New(ONNX, gpu.NewGPU(gpu.Config{Workers: 4, BandwidthBytesPerSec: 1e12, LaunchLatency: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := gpuRT.LoadModel(m); err != nil {
		t.Fatal(err)
	}
	inputs := randBatch(m, 8, 5)
	a, err := cpuRT.Score(inputs, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gpuRT.Score(inputs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		if d > 1e-4 || d < -1e-4 {
			t.Fatalf("gpu output %d differs", i)
		}
	}
}

func TestFFICrossPreservesValues(t *testing.T) {
	vals := []float32{0, -1.5, 3.25, 1e-20, 1e20}
	out, err := ffiCross(vals)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Fatalf("ffi value %d: %v != %v", i, out[i], vals[i])
		}
	}
}

func TestPlannedRuntimesAllocProfile(t *testing.T) {
	// Every embedded runtime's steady state allocates only the returned
	// output slice: ONNX since the plan/arena work, SavedModel since its
	// unfused executor moved onto an arena-backed plan, DL4J since its
	// FFI marshalling moved to pooled scratch (docs/PERFORMANCE.md).
	m := model.NewFFNN(1)
	for _, kind := range Kinds() {
		r := loadRuntime(t, kind, m)
		inputs := randBatch(m, 1, 13)
		work := make([]float32, len(inputs))
		allocs := testing.AllocsPerRun(50, func() {
			copy(work, inputs)
			if _, err := r.Score(work, 1); err != nil {
				t.Fatal(err)
			}
		})
		// Under -race sync.Pool drops a quarter of what is Put back, so
		// DL4J's pooled FFI scratch is rebuilt at random; the path still
		// runs race-checked.
		if allocs > 1 && !raceEnabled {
			t.Errorf("%s: %.1f allocs/op in steady state, want <= 1", kind, allocs)
		}
	}
}

func TestRelativeSpeedONNXFastest(t *testing.T) {
	// Table 4 shape within embedded tools: ONNX >= SavedModel > DL4J in
	// throughput, i.e. ONNX cheapest per call, DL4J most expensive.
	if testing.Short() || raceEnabled {
		t.Skip("timing-sensitive")
	}
	m := model.NewFFNN(1)
	inputs := randBatch(m, 1, 1)
	runtimes := map[Kind]*Runtime{}
	for _, kind := range Kinds() {
		r := loadRuntime(t, kind, m)
		for i := 0; i < 50; i++ {
			if _, err := r.Score(inputs, 1); err != nil {
				t.Fatal(err)
			}
		}
		runtimes[kind] = r
	}
	// Interleave short rounds and compare kinds within each round, then
	// judge on the median per-round ratio: machine-load noise that spans
	// a whole round hits every kind equally, and a single bad window
	// cannot flip the verdict. The start position rotates so no kind
	// always measures right after DL4J's cache-thrashing FFI pass.
	const rounds, iters = 9, 300
	perRound := map[Kind][]float64{}
	for round := 0; round < rounds; round++ {
		kinds := Kinds()
		for i := range kinds {
			kind := kinds[(round+i)%len(kinds)]
			r := runtimes[kind]
			start := nowNanos()
			for it := 0; it < iters; it++ {
				if _, err := r.Score(inputs, 1); err != nil {
					t.Fatal(err)
				}
			}
			perRound[kind] = append(perRound[kind], float64(nowNanos()-start)/iters)
		}
	}
	medianRatio := func(num, den Kind) float64 {
		ratios := make([]float64, rounds)
		for i := range ratios {
			ratios[i] = perRound[num][i] / perRound[den][i]
		}
		sort.Float64s(ratios)
		return ratios[rounds/2]
	}
	// ONNX's fused plan recycles buffers op-to-op where SavedModel's
	// unfused plan holds every activation to the end of the pass. On
	// the small FFNN the two are near-parity by design (both are
	// arena-backed plans over the same kernels), so this assertion only
	// guards the ordering against a real regression — e.g. the fused
	// path re-growing per-op work — not a few percent of scheduler
	// noise; hence the loose 25% tolerance.
	if ratio := medianRatio(ONNX, SavedModel); ratio > 1.25 {
		t.Errorf("ONNX slower than SavedModel (median ratio %.2f)", ratio)
	}
	// DL4J's FFI rounds are a large, stable deficit.
	if ratio := medianRatio(dl4j, SavedModel); ratio < 2 {
		t.Errorf("DL4J not paying its FFI cost vs SavedModel (median ratio %.2f)", ratio)
	}
}

// benchScore drives one runtime kind over the reduced benchmark ResNet
// at batch 2. scripts/bench.sh compares the planned ONNX variant's B/op
// against the unplanned SavedModel baseline below and writes the ratio
// to BENCH_inference.json.
func benchScore(b *testing.B, kind Kind) {
	cfg := model.BenchResNetConfig(3)
	cfg.InputSize = 32
	cfg.Blocks = [4]int{1, 1, 1, 1}
	m := model.NewResNet(cfg)
	r, err := New(kind, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.LoadModel(m); err != nil {
		b.Fatal(err)
	}
	inputs := make([]float32, 2*m.InputLen())
	// One warm-up call so cold-start work (plan state construction) stays
	// out of the steady-state numbers even at tiny -benchtime.
	if _, err := r.Score(inputs, 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Score(inputs, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreResNetPlanned is the compiled-plan scorer: steady state
// allocates only the returned output slice.
func BenchmarkScoreResNetPlanned(b *testing.B) { benchScore(b, ONNX) }

// BenchmarkScoreResNetUnplanned is the per-op allocating baseline over
// the same model, batch, and kernels: the interpreter, Model.ForwardWith,
// called the way a scorer would call it (batch tensor over the caller's
// buffer in, a copy of the probabilities out). No runtime executes this
// way any more; the pair keeps the scorer_bytes_ratio and
// scorer_speed_ratio claims in BENCH_inference.json comparing planned
// execution against genuine per-op allocation.
func BenchmarkScoreResNetUnplanned(b *testing.B) {
	cfg := model.BenchResNetConfig(3)
	cfg.InputSize = 32
	cfg.Blocks = [4]int{1, 1, 1, 1}
	m := model.NewResNet(cfg)
	inputs := make([]float32, 2*m.InputLen())
	score := func() {
		in, err := m.BatchInput(inputs, 2)
		if err != nil {
			b.Fatal(err)
		}
		t, err := m.ForwardWith(in, model.ExecHints{})
		if err != nil {
			b.Fatal(err)
		}
		unplannedOut = append([]float32(nil), t.Data()...)
	}
	score()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		score()
	}
}

// unplannedOut keeps the baseline's output copy from being optimised away.
var unplannedOut []float32

// loadInt8Runtime builds a runtime on an int8-wrapped CPU device.
func loadInt8Runtime(t testing.TB, kind Kind, m *model.Model) *Runtime {
	t.Helper()
	r, err := New(kind, gpu.WithInt8(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadModel(m); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestInt8RuntimeAgreesWithFloat is the serving-level face of the
// accuracy-drift contract: an int8 runtime's argmax predictions agree
// with the float runtime's on nearly every point of a seeded batch.
func TestInt8RuntimeAgreesWithFloat(t *testing.T) {
	m := model.NewFFNN(1)
	const n = 64
	inputs := randBatch(m, n, 17)
	ref := loadRuntime(t, ONNX, m)
	want, err := ref.Score(append([]float32(nil), inputs...), n)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{ONNX, dl4j} {
		r := loadInt8Runtime(t, kind, m)
		if !r.plan.Quantized() {
			t.Fatalf("%s: int8 device produced a float plan", kind)
		}
		got, err := r.Score(append([]float32(nil), inputs...), n)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		cols := m.OutputSize
		agree := 0
		for i := 0; i < n; i++ {
			wi, gi := argmax(want[i*cols:(i+1)*cols]), argmax(got[i*cols:(i+1)*cols])
			if wi == gi {
				agree++
			}
		}
		if frac := float64(agree) / n; frac < 0.95 {
			t.Errorf("%s: int8 top-1 agreement %.4f, want >= 0.95", kind, frac)
		}
		_ = r.Close()
	}
}

func argmax(row []float32) int {
	best, bi := row[0], 0
	for j, v := range row[1:] {
		if v > best {
			best, bi = v, j+1
		}
	}
	return bi
}

// TestInt8SavedModelRejected: the unfused runtime has no plan to hang
// the quantized kernels on, so loading on an int8 device must fail.
func TestInt8SavedModelRejected(t *testing.T) {
	r, err := New(SavedModel, gpu.WithInt8(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadModel(model.NewFFNN(1)); err == nil {
		t.Fatal("savedmodel accepted an int8 device profile")
	}
}

// TestInt8RuntimeAllocProfile extends the alloc-parity gate to the
// quantized path: quantize + packed GEMM + dequantize plus all arena
// traffic still allocates only the returned output slice.
func TestInt8RuntimeAllocProfile(t *testing.T) {
	m := model.NewFFNN(1)
	r := loadInt8Runtime(t, ONNX, m)
	inputs := randBatch(m, 1, 13)
	work := make([]float32, len(inputs))
	allocs := testing.AllocsPerRun(50, func() {
		copy(work, inputs)
		if _, err := r.Score(work, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("int8 onnx: %.1f allocs/op in steady state, want <= 1", allocs)
	}
}

func BenchmarkScoreFFNN(b *testing.B) {
	m := model.NewFFNN(1)
	inputs := make([]float32, 784)
	for _, kind := range Kinds() {
		r, err := New(kind, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.LoadModel(m); err != nil {
			b.Fatal(err)
		}
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.Score(inputs, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ffiCross is the allocating single-crossing variant: it returns a fresh
// slice carrying the values across the boundary, leaving the input
// untouched.
func ffiCross(vals []float32) ([]float32, error) {
	out := append([]float32(nil), vals...)
	buf := make([]byte, 8+4*len(vals))
	if err := ffiCrossInto(out, buf); err != nil {
		return nil, err
	}
	return out, nil
}

// Kinds lists all embedded runtimes in a stable order.
func Kinds() []Kind { return []Kind{ONNX, SavedModel, dl4j} }
