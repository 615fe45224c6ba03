package loadgen

import (
	"strings"
	"testing"
	"time"
)

// TestScenarioVerdicts validates each scenario's constraint logic
// against an observed summary with known outcomes.
func TestScenarioVerdicts(t *testing.T) {
	o := Observed{P90: 91 * time.Millisecond, P99: 100 * time.Millisecond, Throughput: 800}
	cases := []struct {
		name     string
		sc       Scenario
		pass     bool
		metric   float64
		bound    float64
		unit     string
		constrnt string
	}{
		{
			name: "single-stream pass (p90 91ms <= 95ms)",
			sc:   Scenario{Kind: SingleStream, LatencyBound: 95 * time.Millisecond},
			pass: true, metric: 91, bound: 95, unit: "ms", constrnt: "p90 <= 95ms",
		},
		{
			name: "single-stream fail (p90 91ms > 90ms)",
			sc:   Scenario{Kind: SingleStream, LatencyBound: 90 * time.Millisecond},
			pass: false, metric: 91, bound: 90, unit: "ms", constrnt: "p90 <= 90ms",
		},
		{
			name: "multi-stream books p99",
			sc:   Scenario{Kind: MultiStream, LatencyBound: 99 * time.Millisecond, Streams: 4},
			pass: false, metric: 100, bound: 99, unit: "ms", constrnt: "p99 <= 99ms",
		},
		{
			name: "server pass at p99",
			sc:   Scenario{Kind: Server, TargetRate: 500, LatencyBound: 100 * time.Millisecond},
			pass: true, metric: 100, bound: 100, unit: "ms", constrnt: "p99 <= 100ms",
		},
		{
			name: "server fail at p99",
			sc:   Scenario{Kind: Server, TargetRate: 500, LatencyBound: 99 * time.Millisecond},
			pass: false, metric: 100, bound: 99, unit: "ms", constrnt: "p99 <= 99ms",
		},
		{
			name: "offline booking",
			sc:   Scenario{Kind: Offline},
			pass: true, metric: 800, bound: 0, unit: "events/s", constrnt: "throughput booked",
		},
	}
	for _, c := range cases {
		v := c.sc.Judge(o)
		if v.Pass != c.pass || v.Metric != c.metric || v.Bound != c.bound ||
			v.Unit != c.unit || v.Constraint != c.constrnt {
			t.Errorf("%s: got %+v", c.name, v)
		}
		if v.Scenario != c.sc.Kind {
			t.Errorf("%s: verdict names scenario %q", c.name, v.Scenario)
		}
	}
}

// TestVerdictString: the rendered verdict carries status and constraint.
func TestVerdictString(t *testing.T) {
	sc := Scenario{Kind: Server, TargetRate: 100, LatencyBound: 10 * time.Millisecond}
	v := sc.Judge(Observed{P99: 5 * time.Millisecond})
	s := v.String()
	if !strings.HasPrefix(s, "PASS") || !strings.Contains(s, "p99 <= 10ms") {
		t.Fatalf("verdict string %q", s)
	}
	v = sc.Judge(Observed{P99: 15 * time.Millisecond})
	if !strings.HasPrefix(v.String(), "FAIL") {
		t.Fatalf("verdict string %q", v.String())
	}
}

// TestScenarioNormalize pins the per-kind defaults.
func TestScenarioNormalize(t *testing.T) {
	if n := (Scenario{Kind: SingleStream, Streams: 3}).Normalize(); n.Streams != 1 {
		t.Fatalf("single-stream defaults: %+v", n)
	}
	if n := (Scenario{Kind: MultiStream}).Normalize(); n.Streams != 4 {
		t.Fatalf("multi-stream defaults: %+v", n)
	}
	if n := (Scenario{Kind: MultiStream, Streams: 8}).Normalize(); n.Streams != 8 {
		t.Fatalf("explicit values overridden: %+v", n)
	}
}

// TestScenarioValidate covers the malformed-scenario surface.
func TestScenarioValidate(t *testing.T) {
	bad := []Scenario{
		{},
		{Kind: "turbo"},
		{Kind: SingleStream},
		{Kind: MultiStream},
		{Kind: Server, LatencyBound: time.Second},
		{Kind: Server, TargetRate: 100},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d (%+v): invalid scenario validated", i, sc)
		}
	}
	good := []Scenario{
		{Kind: SingleStream, LatencyBound: time.Second},
		{Kind: MultiStream, LatencyBound: time.Second, Streams: 2},
		{Kind: Server, TargetRate: 100, LatencyBound: time.Second},
		{Kind: Offline},
	}
	for i, sc := range good {
		if err := sc.Validate(); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

// TestScenarioPolicy: server offers Poisson at the target rate with the
// scenario's seed; everything else saturates (closed-loop scenarios are
// gated by the runner, offline is unpaced by definition).
func TestScenarioPolicy(t *testing.T) {
	p := Scenario{Kind: Server, TargetRate: 400, Seed: 11}.Policy()
	if p.Process != ProcessPoisson || p.Rate != 400 || p.Seed != 11 {
		t.Fatalf("server policy: %+v", p)
	}
	for _, k := range []Kind{SingleStream, MultiStream, Offline} {
		if p := (Scenario{Kind: k}).Policy(); p.Process != ProcessSaturate {
			t.Fatalf("%s policy: %+v", k, p)
		}
	}
}
