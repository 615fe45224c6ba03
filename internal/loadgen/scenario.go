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
	// Offline issues everything with no pacing and books throughput
	// against the floor.
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
	// Percentile is the booked latency percentile. Zero defaults per
	// kind: 0.90 for single-stream, 0.99 for multi-stream and server.
	// Only 0.5, 0.9, 0.95 and 0.99 are measured.
	Percentile float64
	// MinThroughput is the offline throughput floor in events/s; zero
	// books the measured throughput with an unconditional pass.
	MinThroughput float64
	// Streams is the multi-stream outstanding-query count (default 4).
	Streams int
}

// Normalize fills kind-specific defaults without mutating the receiver.
func (sc Scenario) Normalize() Scenario {
	switch sc.Kind {
	case SingleStream:
		if sc.Percentile == 0 {
			sc.Percentile = 0.90
		}
		sc.Streams = 1
	case MultiStream:
		if sc.Percentile == 0 {
			sc.Percentile = 0.99
		}
		if sc.Streams <= 0 {
			sc.Streams = 4
		}
	case Server:
		if sc.Percentile == 0 {
			sc.Percentile = 0.99
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
		if sc.MinThroughput < 0 {
			return fmt.Errorf("loadgen: offline throughput floor must be non-negative")
		}
	case "":
		return fmt.Errorf("loadgen: scenario needs a kind")
	default:
		return fmt.Errorf("loadgen: unknown scenario kind %q", sc.Kind)
	}
	switch sc.Percentile {
	case 0, 0.5, 0.9, 0.95, 0.99:
	default:
		return fmt.Errorf("loadgen: percentile %v not measured (use 0.5, 0.9, 0.95 or 0.99)", sc.Percentile)
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
	P50, P90, P95, P99 time.Duration
	// Throughput is the measured rate in events/s.
	Throughput float64
}

// percentile picks the booked percentile out of an Observed.
func (o Observed) percentile(q float64) time.Duration {
	switch q {
	case 0.5:
		return o.P50
	case 0.9:
		return o.P90
	case 0.95:
		return o.P95
	default:
		return o.P99
	}
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
	// Bound is the constraint's threshold in the same unit; 0 for an
	// unconstrained offline booking.
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
	sc = sc.Normalize()
	if sc.Kind == Offline {
		v := Verdict{
			Scenario: Offline,
			Metric:   o.Throughput,
			Bound:    sc.MinThroughput,
			Unit:     "events/s",
		}
		if sc.MinThroughput > 0 {
			v.Constraint = fmt.Sprintf("throughput >= %g events/s", sc.MinThroughput)
			v.Pass = o.Throughput >= sc.MinThroughput
		} else {
			v.Constraint = "throughput booked"
			v.Pass = true
		}
		return v
	}
	measured := o.percentile(sc.Percentile)
	boundMs := float64(sc.LatencyBound) / float64(time.Millisecond)
	return Verdict{
		Scenario:   sc.Kind,
		Pass:       measured <= sc.LatencyBound,
		Constraint: fmt.Sprintf("p%g <= %gms", sc.Percentile*100, boundMs),
		Metric:     float64(measured) / float64(time.Millisecond),
		Bound:      boundMs,
		Unit:       "ms",
	}
}
