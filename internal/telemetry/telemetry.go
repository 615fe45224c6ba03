// Package telemetry is the live observability layer for the Crayfish
// pipeline (§3.2's analyzer component, extended from post-hoc analysis to
// continuous sampling): atomic counters, gauges, and mergeable streaming
// latency histograms collected in a named registry while an experiment
// runs, so mid-run pathologies — broker queue growth, scorer stalls,
// micro-batch backpressure — are visible before the run ends.
//
// Concurrency contract: every metric handle (Counter, Gauge, Histogram)
// is safe for concurrent use from any number of goroutines; the hot paths
// (Add, Set, Record) are lock-free, built on sync/atomic only. Registry
// lookups take a mutex and are meant for setup time — resolve handles
// once, then record through them. Snapshot may be called concurrently
// with recording; it observes each metric atomically (per-field, not
// cross-metric).
//
// Disabled-path contract: a nil *Registry returns nil metric handles, and
// every handle method no-ops on a nil receiver. Instrumented code
// therefore never branches on "telemetry enabled" — it records
// unconditionally, and the nil-receiver fast path compiles to a
// single predictable branch (see BenchmarkRecordDisabled).
//
// Naming convention: metric names are dot-separated `stage.metric`
// paths; duration-valued metrics carry an `_ns` suffix and are recorded
// in nanoseconds. The full contract — every name, type, unit, and stage
// of origin — is documented in docs/OBSERVABILITY.md.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil Counter silently discards updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (queue depth, lag). The zero value is
// ready to use; a nil Gauge silently discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the level by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of live metrics. The zero value is not
// usable; create one with New. A nil *Registry is the disabled
// instrumentation mode: all lookups return nil handles.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns a nil handle.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram()
		r.histograms[name] = h
	}
	return h
}

// Snapshot captures every metric's current state. A nil registry
// returns nil.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		histograms[n] = h
	}
	r.mu.Unlock()

	s := &Snapshot{
		At:         time.Now(),
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(histograms)),
	}
	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range histograms {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}
