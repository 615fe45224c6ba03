package loadgen

import (
	"fmt"
	"time"
)

// Kind names an MLPerf-style load scenario.
type Kind string

// The four MLPerf Inference scenarios, adapted to the streaming harness
// (docs/SCENARIOS.md has the full contract).
const (
	// SingleStream issues one query at a time — the next arrival waits
	// for the previous completion (issue-on-completion) — and books the
	// p90 latency against the bound.
	SingleStream Kind = "single-stream"
	// MultiStream keeps a fixed number of outstanding queries and books
	// the p99 latency against the bound.
	MultiStream Kind = "multi-stream"
	// Server offers Poisson arrivals at the target rate and books the
	// p99 latency against the bound; this is the scenario the capacity
	// sweep steps to find the knee.
	Server Kind = "server"
	// Offline issues everything with no pacing and books the throughput
	// it reaches.
	Offline Kind = "offline"
)

// Scenario is a first-class scenario value: an arrival discipline plus
// the constraint its run is judged against.
type Scenario struct {
	// Kind selects the scenario.
	Kind Kind
	// TargetRate is the offered Poisson rate in events/s (server only).
	TargetRate float64
	// Seed drives the scenario's arrival randomness (server Poisson
	// schedule). Equal seeds yield byte-identical schedules.
	Seed int64
	// LatencyBound is the latency constraint (latency scenarios).
	LatencyBound time.Duration
	// Streams is the multi-stream outstanding-query count (default 4).
	Streams int
}

// Normalize fills kind-specific defaults without mutating the receiver.
func (sc Scenario) Normalize() Scenario {
	switch sc.Kind {
	case SingleStream:
		sc.Streams = 1
	case MultiStream:
		if sc.Streams <= 0 {
			sc.Streams = 4
		}
	}
	return sc
}

// Validate checks the scenario is well formed.
func (sc Scenario) Validate() error {
	sc = sc.Normalize()
	switch sc.Kind {
	case SingleStream, MultiStream:
		if sc.LatencyBound <= 0 {
			return fmt.Errorf("loadgen: %s scenario needs a positive latency bound", sc.Kind)
		}
	case Server:
		if sc.TargetRate <= 0 {
			return fmt.Errorf("loadgen: server scenario needs a positive target rate")
		}
		if sc.LatencyBound <= 0 {
			return fmt.Errorf("loadgen: server scenario needs a positive latency bound")
		}
	case Offline:
	case "":
		return fmt.Errorf("loadgen: scenario needs a kind")
	default:
		return fmt.Errorf("loadgen: unknown scenario kind %q", sc.Kind)
	}
	return nil
}

// Policy derives the scenario's arrival policy. Single- and multi-stream
// are closed-loop: arrivals are gated on completions, so their policy is
// saturation and the runner enforces the outstanding-query window.
func (sc Scenario) Policy() Policy {
	sc = sc.Normalize()
	switch sc.Kind {
	case Server:
		return Poisson(sc.TargetRate, sc.Seed)
	default:
		return Saturate()
	}
}

// Observed is the latency/throughput summary a scenario is judged on.
type Observed struct {
	P90, P99 time.Duration
	// Throughput is the measured rate in events/s.
	Throughput float64
}

// Verdict is a scenario's structured pass/fail outcome: the constraint,
// the measured metric and the bound it was compared against.
type Verdict struct {
	// Scenario is the judged scenario kind.
	Scenario Kind
	// Pass reports whether the constraint held.
	Pass bool
	// Constraint restates the rule in words, e.g. "p99 <= 100ms".
	Constraint string
	// Metric is the measured value (ms for latency scenarios, events/s
	// for offline).
	Metric float64
	// Bound is the constraint's threshold in the same unit; 0 for the
	// offline booking.
	Bound float64
	// Unit names the metric's unit ("ms" or "events/s").
	Unit string
}

// String renders the verdict for experiment tables.
func (v Verdict) String() string {
	status := "PASS"
	if !v.Pass {
		status = "FAIL"
	}
	return fmt.Sprintf("%s (%s: %.2f %s)", status, v.Constraint, v.Metric, v.Unit)
}

// Judge applies the scenario's constraint to an observed summary.
func (sc Scenario) Judge(o Observed) Verdict {
	if sc.Kind == Offline {
		return Verdict{Scenario: Offline, Pass: true, Constraint: "throughput booked", Metric: o.Throughput, Unit: "events/s"}
	}
	// Single-stream books the p90, the others the p99.
	measured, pct := o.P99, 99
	if sc.Kind == SingleStream {
		measured, pct = o.P90, 90
	}
	boundMs := float64(sc.LatencyBound) / float64(time.Millisecond)
	return Verdict{
		Scenario:   sc.Kind,
		Pass:       measured <= sc.LatencyBound,
		Constraint: fmt.Sprintf("p%d <= %gms", pct, boundMs),
		Metric:     float64(measured) / float64(time.Millisecond),
		Bound:      boundMs,
		Unit:       "ms",
	}
}
