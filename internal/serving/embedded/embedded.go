// Package embedded implements the three interoperability libraries from
// §3.4.2 as in-process serving runtimes:
//
//   - ONNX: loads the ONNX-analogue format and executes a compiled
//     per-device execution plan (model.Plan) whose steady state is
//     allocation-free — the fastest embedded path, as in Table 4.
//   - SavedModel: loads the SavedModel-analogue bundle and executes the
//     graph op-by-op through an unfused plan: no buffer recycling between
//     operators inside a pass (every op output stays live, as graph
//     executors without a fusion pass behave), but buffers come from the
//     plan's arena, so the steady state is allocation-parity with ONNX.
//   - DL4J: loads the Keras-H5-analogue format and pays a real foreign-
//     function-interface cost on every call: inputs and outputs round-trip
//     through a byte-level marshalling boundary, like a JNI bridge.
//
// Every runtime scores through a model.Plan compiled at load time for
// its device — nothing here runs the interpreter — and produces the
// outputs of the oracle, model.ForwardWith, under the device's hints;
// they differ only in how they execute, which is exactly the paper's
// premise. The external daemons (internal/serving/external) host these
// runtimes as their executors: ONNX's fused plan inside TF-Serving,
// SavedModel's unfused plan inside TorchServe and Ray Serve.
//
// A device wrapped by gpu.WithInt8 (or named "gpu+int8") opts the ONNX
// and DL4J runtimes into the quantized int8 path: LoadModel folds batch
// norms, calibrates activation ranges on a deterministic synthetic
// batch, and compiles an int8 plan (docs/QUANTIZATION.md). The
// savedmodel runtime rejects int8 — its unfused executor has no plan
// fusion to hang the quantized kernels on, matching how TF SavedModel
// deployments route quantization through a converter instead.
package embedded

import (
	"fmt"

	"crayfish/internal/gpu"
	"crayfish/internal/model"
	"crayfish/internal/modelfmt"
	"crayfish/internal/serving"
)

// Kind selects an embedded runtime implementation.
type Kind string

// The embedded serving tools from the paper.
const (
	ONNX       Kind = "onnx"
	SavedModel Kind = "savedmodel"
	dl4j       Kind = "dl4j"
)

// Runtime is an embedded serving tool: Load brings a stored model into
// operator memory, Score runs inference in-process.
type Runtime struct {
	kind   Kind
	format modelfmt.Format
	dev    gpu.Device

	m    *model.Model
	plan *model.Plan // compiled for this runtime's device (unfused for SavedModel)
}

// New creates a runtime of the given kind executing on dev (nil = CPU).
func New(kind Kind, dev gpu.Device) (*Runtime, error) {
	if dev == nil {
		dev = gpu.CPU()
	}
	var f modelfmt.Format
	switch kind {
	case ONNX:
		f = modelfmt.ONNX
	case SavedModel:
		f = modelfmt.SavedModel
	case dl4j:
		f = modelfmt.H5
	default:
		return nil, fmt.Errorf("embedded: unknown runtime kind %q", kind)
	}
	return &Runtime{kind: kind, format: f, dev: dev}, nil
}

// Name implements serving.Scorer.
func (r *Runtime) Name() string { return string(r.kind) }

// Format returns the storage format this runtime loads.
func (r *Runtime) Format() modelfmt.Format { return r.format }

// Load decodes stored model bytes in the runtime's native format and
// prepares execution (the ONNX runtime compiles its fused plan here).
// It implements the load half of the CrayfishModel interface (§3.2).
func (r *Runtime) Load(data []byte) error {
	m, err := modelfmt.Decode(r.format, data)
	if err != nil {
		return fmt.Errorf("embedded %s: %w", r.kind, err)
	}
	return r.LoadModel(m)
}

// LoadModel installs an in-memory model directly, bypassing storage,
// and compiles the execution plan against the device's profile,
// pre-sizing every intermediate buffer. ONNX and DL4J compile the fused
// plan (DL4J's ND4J backend compiles to the same C++ kernels; its
// deficit is the FFI boundary around them, not the execution inside);
// SavedModel compiles the unfused plan. On an int8 device profile the
// fused runtimes instead fold batch norms, calibrate, and compile the
// quantized plan (docs/QUANTIZATION.md).
func (r *Runtime) LoadModel(m *model.Model) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("embedded %s: %w", r.kind, err)
	}
	var plan *model.Plan
	switch {
	case gpu.ProfileOf(r.dev).Int8:
		if r.kind == SavedModel {
			return fmt.Errorf("embedded savedmodel: int8 execution needs a fused plan; the savedmodel runtime executes its graph unfused (use onnx or dl4j)")
		}
		folded := model.FoldBatchNorm(m)
		cal, err := folded.Calibrate(calibrationBatch(m.InputLen(), calibrationPoints), calibrationPoints)
		if err != nil {
			return fmt.Errorf("embedded %s: calibrating for int8: %w", r.kind, err)
		}
		p, err := folded.QuantizePlan(r.hints(), cal)
		if err != nil {
			return fmt.Errorf("embedded %s: compiling int8 plan: %w", r.kind, err)
		}
		plan = p
	case r.kind == SavedModel:
		p, err := m.CompileUnfused(r.hints())
		if err != nil {
			return fmt.Errorf("embedded %s: compiling plan: %w", r.kind, err)
		}
		plan = p
	default:
		p, err := m.Compile(r.hints())
		if err != nil {
			return fmt.Errorf("embedded %s: compiling plan: %w", r.kind, err)
		}
		plan = p
	}
	r.m = m
	if r.plan != nil {
		r.plan.Close()
	}
	r.plan = plan
	return nil
}

// calibrationPoints sizes the synthetic calibration batch built at
// int8 load time. 32 points keep load cheap while covering the
// activation ranges the seeded workload generators produce.
const calibrationPoints = 32

// calibrationBatch generates the deterministic synthetic calibration
// set: an xorshift stream of points in [0, 1), the range of the
// workload generator's features. Serving tools that quantize at load
// time ship a representative dataset with the model; here the workload
// distribution is known, so the runtime synthesises it.
func calibrationBatch(pointLen, n int) []float32 {
	out := make([]float32, n*pointLen)
	s := uint32(0x9E3779B9)
	for i := range out {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		out[i] = float32(s>>8) / (1 << 24)
	}
	return out
}

// Close releases the runtime's compiled plan (its resident worker
// pool). It implements serving.Closer; no Score calls may be in flight.
func (r *Runtime) Close() error {
	if r.plan != nil {
		r.plan.Close()
		r.plan = nil
	}
	return nil
}

// ArenaStats reports the compiled plan's buffer-arena hit/miss counts;
// zero before a model loads. The instrument wrapper samples it into the
// tensor.arena.* metrics.
func (r *Runtime) ArenaStats() (hits, misses uint64) {
	if r.plan == nil {
		return 0, 0
	}
	return r.plan.ArenaStats()
}

// Model returns the loaded model, or nil before Load.
func (r *Runtime) Model() *model.Model { return r.m }

// InputLen implements serving.Scorer.
func (r *Runtime) InputLen() int {
	if r.m == nil {
		return 0
	}
	return r.m.InputLen()
}

// OutputSize implements serving.Scorer.
func (r *Runtime) OutputSize() int {
	if r.m == nil {
		return 0
	}
	return r.m.OutputSize
}

// Score implements serving.Scorer (the apply half of CrayfishModel).
//
//lint:lent inputs
func (r *Runtime) Score(inputs []float32, n int) ([]float32, error) {
	if r.m == nil {
		return nil, fmt.Errorf("embedded %s: no model loaded", r.kind)
	}
	if err := serving.ValidateBatch(inputs, n, r.m.InputLen()); err != nil {
		return nil, err
	}
	switch r.kind {
	case ONNX, SavedModel:
		return r.scorePlanned(inputs, n)
	case dl4j:
		return r.scoreDL4J(inputs, n)
	}
	return nil, fmt.Errorf("embedded: unknown runtime kind %q", r.kind)
}

// hints translates the runtime's device profile into execution hints.
func (r *Runtime) hints() model.ExecHints {
	p := gpu.ProfileOf(r.dev)
	return model.ExecHints{Workers: p.Workers, FastConv: p.FastKernels}
}

// scorePlanned runs the compiled plan (fused for ONNX, unfused for
// SavedModel) with device-aware kernels and explicit host↔device
// transfers. Per the Scorer contract the input batch is the plan's to
// scratch; only the output slice is allocated.
func (r *Runtime) scorePlanned(inputs []float32, n int) ([]float32, error) {
	r.dev.Transfer(r.inputBytes(len(inputs)))
	out := make([]float32, n*r.plan.OutputLen())
	if err := r.plan.Forward(inputs, n, out); err != nil {
		return nil, fmt.Errorf("embedded %s: %w", r.kind, err)
	}
	r.dev.Transfer(4 * len(out))
	return out, nil
}

// inputBytes is the host→device size of an elems-element input batch:
// float32-sized normally, int8-sized when the plan quantizes at the
// device boundary (the quantized engine streams int8 activations, the
// way TensorRT int8 deployments cut the PCIe bill 4x). Outputs come
// back dequantized, so the return transfer stays float32-sized.
func (r *Runtime) inputBytes(elems int) int {
	if r.plan.Quantized() {
		return elems
	}
	return 4 * elems
}

// scoreDL4J crosses the FFI boundary in both directions around a
// compiled-plan forward pass. The marshalling runs through pooled
// scratch (the caller's batch is copied once into the float workspace,
// never mutated), so the steady state allocates only the output slice —
// the same ≤1 alloc/op profile as the ONNX path — while the 96-round
// encode/decode keeps paying the full modelled JNI cost.
func (r *Runtime) scoreDL4J(inputs []float32, n int) ([]float32, error) {
	s := ffiPool.Get().(*ffiScratch)
	defer ffiPool.Put(s)
	width := len(inputs)
	if w := n * r.plan.OutputLen(); w > width {
		width = w // wide-output models: one buffer serves both directions
	}
	buf, scratch := s.grow(width)
	native := scratch[:len(inputs)]
	copy(native, inputs)
	if err := ffiCrossRoundsInto(native, buf[:8+4*len(native)]); err != nil {
		return nil, fmt.Errorf("embedded dl4j: input marshalling: %w", err)
	}
	r.dev.Transfer(r.inputBytes(len(native)))
	out := make([]float32, n*r.plan.OutputLen())
	if err := r.plan.Forward(native, n, out); err != nil {
		return nil, fmt.Errorf("embedded dl4j: %w", err)
	}
	r.dev.Transfer(4 * len(out))
	// Results cross back once; the output buffer is ours, so the
	// decode lands in place.
	if err := ffiCrossInto(out, buf[:8+4*len(out)]); err != nil {
		return nil, fmt.Errorf("embedded dl4j: output marshalling: %w", err)
	}
	return out, nil
}
