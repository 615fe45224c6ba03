// Package gpu models the hardware accelerator used by the paper's RQ2
// experiments (NVIDIA T4). A Device decides how a runtime executes its
// kernels and what data-movement cost it pays:
//
//   - The CPU device runs kernels sequentially with no transfer cost.
//   - The GPU device runs kernels data-parallel across host cores (real
//     speedup from real work) and charges an explicit host↔device transfer
//     cost per inference call: bytes divided by PCIe-like bandwidth plus a
//     fixed kernel-launch latency. The transfer pacing is the one place in
//     this package where time is modelled rather than computed; see
//     DESIGN.md §5. It is applied by timing.WaitUntil, so the 30 µs
//     launch costs 30 µs, where a runtime timer would sleep ≈ 1.1 ms.
package gpu

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"crayfish/internal/timing"
)

// Device abstracts the execution hardware available to a serving runtime.
type Device interface {
	// Name identifies the device ("cpu", "gpu").
	Name() string
	// workers is the kernel-level parallelism the device offers; 1 means
	// sequential execution.
	workers() int
	// FastKernels reports whether the device's kernel library uses
	// fast algorithms — Winograd convolution and the fused transformer
	// kernels (flash-style attention, fused residual + layer norm) —
	// as accelerator libraries like cuDNN do. Workers additionally fans
	// attention (head × query-row) lanes out alongside GEMM row ranges.
	FastKernels() bool
	// Transfer accounts for moving n bytes between host and device.
	// It blocks for the modelled duration on accelerator devices
	// (timing.Sleep) and is free on the CPU.
	Transfer(n int)
}

// ExecProfile is the execution shape a device feeds a runtime's
// compiled plan: kernel-level parallelism and whether the device's
// kernel library provides fast convolution algorithms. Runtimes
// translate it into the model layer's execution hints at plan-compile
// time, so a plan is fixed per (model, device) pair.
type ExecProfile struct {
	Workers     int
	FastKernels bool
	// Int8 requests the quantized inference path: the runtime compiles
	// an int8 plan (model.QuantizePlan) and pays int8-sized transfers.
	Int8 bool
}

// ProfileOf extracts a device's execution profile (nil = CPU).
func ProfileOf(d Device) ExecProfile {
	if d == nil {
		d = CPU()
	}
	return ExecProfile{Workers: d.workers(), FastKernels: d.FastKernels(), Int8: SupportsInt8(d)}
}

// WithInt8 wraps a device so its profile requests int8 execution, the
// way TensorRT-style deployments opt a model into the quantized engine
// on the same hardware. nil wraps the CPU.
//
//lint:allow deadexport serving tests pin the int8 profile on the CPU
func WithInt8(d Device) Device {
	if d == nil {
		d = CPU()
	}
	return int8Device{d}
}

// SupportsInt8 reports whether the device was wrapped by WithInt8.
func SupportsInt8(d Device) bool {
	_, ok := d.(int8Device)
	return ok
}

type int8Device struct {
	Device
}

func (d int8Device) Name() string { return d.Device.Name() + "+int8" }

// CPU returns the host processor device.
func CPU() Device { return cpuDevice{} }

type cpuDevice struct{}

func (cpuDevice) Name() string      { return "cpu" }
func (cpuDevice) workers() int      { return 1 }
func (cpuDevice) FastKernels() bool { return false }
func (cpuDevice) Transfer(int)      {}

// Config tunes the simulated accelerator.
//
//lint:allow deadexport serving tests pin worker counts and transfer costs
type Config struct {
	// Workers is the data-parallel kernel width. 0 means all host cores.
	Workers int
	// BandwidthBytesPerSec models the host↔device interconnect.
	// 0 means 12 GB/s (PCIe 3.0 x16 effective, the T4's link).
	BandwidthBytesPerSec float64
	// LaunchLatency is the fixed per-call kernel launch + driver cost.
	// 0 means 30 µs.
	LaunchLatency time.Duration
}

// NewGPU returns an accelerator device.
//
//lint:allow deadexport serving tests pin worker counts and transfer costs
func NewGPU(cfg Config) Device {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.BandwidthBytesPerSec <= 0 {
		cfg.BandwidthBytesPerSec = 12e9
	}
	if cfg.LaunchLatency <= 0 {
		cfg.LaunchLatency = 30 * time.Microsecond
	}
	return &gpuDevice{cfg: cfg}
}

type gpuDevice struct {
	cfg Config
}

func (g *gpuDevice) Name() string { return "gpu" }

func (g *gpuDevice) workers() int { return g.cfg.Workers }

func (g *gpuDevice) FastKernels() bool { return true }

func (g *gpuDevice) Transfer(n int) {
	if n <= 0 {
		return
	}
	timing.Sleep(g.cfg.LaunchLatency + time.Duration(float64(n)/g.cfg.BandwidthBytesPerSec*float64(time.Second)))
}

// ByName resolves "cpu" or "gpu" (with defaults) for configuration
// files; a "+int8" suffix opts into the quantized execution profile
// ("gpu+int8").
func ByName(name string) (Device, error) {
	base, quantized := name, false
	if n, ok := strings.CutSuffix(name, "+int8"); ok {
		base, quantized = n, true
	}
	var d Device
	switch base {
	case "", "cpu":
		d = CPU()
	case "gpu":
		d = NewGPU(Config{})
	default:
		return nil, fmt.Errorf("gpu: unknown device %q", name)
	}
	if quantized {
		d = WithInt8(d)
	}
	return d, nil
}
