package netsim

import (
	"sort"
	"testing"
	"time"
)

func TestLoopbackIsFree(t *testing.T) {
	if Loopback.Enabled() {
		t.Fatal("loopback enabled")
	}
	if Loopback.delay(1<<30) != 0 {
		t.Fatal("loopback delays")
	}
	start := time.Now()
	Loopback.Apply(1 << 30)
	if time.Since(start) > time.Millisecond {
		t.Fatal("loopback slept")
	}
}

func TestDelayScalesWithBytes(t *testing.T) {
	p := Profile{Latency: time.Millisecond, BandwidthBytesPerSec: 1e6}
	if d := p.delay(0); d != time.Millisecond {
		t.Fatalf("zero-byte delay %v", d)
	}
	if d := p.delay(1000); d != time.Millisecond+time.Millisecond {
		t.Fatalf("1KB delay %v", d)
	}
	if p.delay(2000) <= p.delay(1000) {
		t.Fatal("delay not monotone in bytes")
	}
}

func TestLANMatchesPaperPings(t *testing.T) {
	// §4.2: 3 KB one FFNN input pings in 0.945 ms round trip, 64 KB in
	// 1.565 ms. One-way: our profile should land near half of each.
	rt3k := 2 * LAN.delay(3_000)
	rt64k := 2 * LAN.delay(64_000)
	if rt3k < 700*time.Microsecond || rt3k > 1300*time.Microsecond {
		t.Fatalf("3KB round trip %v, paper 0.945ms", rt3k)
	}
	if rt64k < 1200*time.Microsecond || rt64k > 2600*time.Microsecond {
		t.Fatalf("64KB round trip %v, paper 1.565ms", rt64k)
	}
}

// TestApplySleeps: Apply holds a message for its modelled delay, no less
// and no more. The median of 21 applies must sit within 10 % of the
// model (the primitive's p50 contract), at 5 ms and at the LAN profile's
// 3 KB hop of 0.5 ms, which a runtime timer stretched to ≈ 1.1 ms.
func TestApplySleeps(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Profile
		n    int
	}{
		{"5ms", Profile{Latency: 5 * time.Millisecond}, 0},
		{"LAN 3KB", LAN, 3_000},
	} {
		want := c.p.delay(c.n)
		took := make([]time.Duration, 21)
		for i := range took {
			start := time.Now()
			c.p.Apply(c.n)
			took[i] = time.Since(start)
		}
		sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
		if p50 := took[len(took)/2]; p50 < want*9/10 || p50 > want*11/10 {
			t.Errorf("%s: modelled %v, applied %v at p50, want within 10 %%", c.name, want, p50)
		}
	}
}
