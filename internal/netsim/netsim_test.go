package netsim

import (
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

func TestApplySleeps(t *testing.T) {
	p := Profile{Latency: 5 * time.Millisecond}
	start := time.Now()
	p.Apply(0)
	if time.Since(start) < 4*time.Millisecond {
		t.Fatal("Apply did not sleep")
	}
}
