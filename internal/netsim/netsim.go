// Package netsim models the network links between the paper's machines.
// Crayfish's evaluation runs every component on a separate GCP VM over a
// 1 Gbps LAN (§4.2: a 3 KB packet pings in 0.945 ms, a 64 KB packet in
// 1.565 ms). This repository runs everything on one host, so experiments
// opt into a Profile that injects the corresponding one-way delay at the
// broker and at the external serving daemons. This pacing and the GPU
// transfer model are the only modelled-time elements in the repository
// (DESIGN.md §5); everything else is real work.
package netsim

import "time"

// Profile describes one network link.
type Profile struct {
	// Latency is the one-way propagation + protocol latency per
	// operation.
	Latency time.Duration
	// BandwidthBytesPerSec is the link throughput; zero means
	// infinitely fast (only Latency applies).
	BandwidthBytesPerSec float64
}

// Loopback is the do-nothing profile: everything stays in-process.
var Loopback = Profile{}

// LAN reproduces the paper's measured GCP link: fitting the two ping
// measurements gives ≈0.47 ms one-way latency and ≈100 MB/s effective
// bandwidth (1 Gbps line rate).
var LAN = Profile{Latency: 470 * time.Microsecond, BandwidthBytesPerSec: 100e6}

// Enabled reports whether the profile injects any delay at all.
func (p Profile) Enabled() bool {
	return p.Latency > 0 || p.BandwidthBytesPerSec > 0
}

// delay returns the modelled one-way transfer time for n bytes.
func (p Profile) delay(n int) time.Duration {
	d := p.Latency
	if p.BandwidthBytesPerSec > 0 && n > 0 {
		d += time.Duration(float64(n) / p.BandwidthBytesPerSec * float64(time.Second))
	}
	return d
}

// Apply blocks for the modelled transfer time of n bytes.
func (p Profile) Apply(n int) {
	if !p.Enabled() {
		return
	}
	if d := p.delay(n); d > 0 {
		//lint:allow clockdiscipline the modelled transfer delay itself
		time.Sleep(d)
	}
}
