package gpu

import (
	"sort"
	"testing"
	"time"
)

func TestCPUDevice(t *testing.T) {
	d := CPU()
	if d.Name() != "cpu" || d.workers() != 1 {
		t.Fatalf("cpu device = %s/%d", d.Name(), d.workers())
	}
	start := time.Now()
	d.Transfer(1 << 30)
	if time.Since(start) > time.Millisecond {
		t.Fatal("cpu Transfer should be free")
	}
}

func TestGPUDefaults(t *testing.T) {
	d := NewGPU(Config{})
	if d.Name() != "gpu" {
		t.Fatalf("name = %s", d.Name())
	}
	if d.workers() < 1 {
		t.Fatalf("workers = %d", d.workers())
	}
}

func TestGPUTransferScalesWithBytes(t *testing.T) {
	d := NewGPU(Config{Workers: 2, BandwidthBytesPerSec: 1e9, LaunchLatency: time.Microsecond})
	start := time.Now()
	d.Transfer(10_000_000) // 10 MB at 1 GB/s ≈ 10 ms
	small := time.Since(start)
	if small < 8*time.Millisecond {
		t.Fatalf("10MB transfer took %v, want ≈10ms", small)
	}
	start = time.Now()
	d.Transfer(0)
	if time.Since(start) > time.Millisecond {
		t.Fatal("zero-byte transfer should be free")
	}
}

// TestGPULaunchLatencyFloor: a transfer applies its launch latency, no
// less and no more, at 5 ms and at the default 30 µs (a runtime timer
// sleeps that ≈ 1.1 ms). The median of 21 transfers must sit within
// 10 % of the model, the primitive's p50 contract.
func TestGPULaunchLatencyFloor(t *testing.T) {
	for _, launch := range []time.Duration{5 * time.Millisecond, 30 * time.Microsecond} {
		d := NewGPU(Config{Workers: 1, BandwidthBytesPerSec: 1e12, LaunchLatency: launch})
		took := make([]time.Duration, 21)
		for i := range took {
			start := time.Now()
			d.Transfer(1)
			took[i] = time.Since(start)
		}
		sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
		if p50 := took[len(took)/2]; p50 < launch*9/10 || p50 > launch*11/10 {
			t.Errorf("launch latency %v applied as %v at p50, want within 10 %%", launch, p50)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"", "cpu", "gpu"} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
	if _, err := ByName("tpu"); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestInt8Wrapping(t *testing.T) {
	d := WithInt8(nil)
	if !SupportsInt8(d) || SupportsInt8(CPU()) {
		t.Fatal("SupportsInt8 does not track WithInt8")
	}
	if d.Name() != "cpu+int8" {
		t.Fatalf("name = %s", d.Name())
	}
	p := ProfileOf(d)
	if !p.Int8 || p.Workers != 1 || p.FastKernels {
		t.Fatalf("profile = %+v", p)
	}
	for name, want := range map[string]string{"cpu+int8": "cpu+int8", "+int8": "cpu+int8", "gpu+int8": "gpu+int8"} {
		d, err := ByName(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if !SupportsInt8(d) || d.Name() != want {
			t.Fatalf("%q resolved to %s, int8=%v", name, d.Name(), SupportsInt8(d))
		}
	}
	if _, err := ByName("tpu+int8"); err == nil {
		t.Fatal("unknown int8 base device accepted")
	}
}
