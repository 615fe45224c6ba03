package core

import (
	"testing"
	"time"

	"crayfish/internal/loadgen"
	"crayfish/internal/telemetry"
)

// scenarioConfig is quickConfig, constant Load and all: the scenario's
// arrival policy replaces whatever the workload said.
func scenarioConfig(engine string) Config {
	return quickConfig(engine, ServingConfig{Mode: Embedded, Tool: "onnx"})
}

// TestRunScenarioKinds runs each of the four scenarios end to end on one
// engine and checks the verdict wiring: bound, structured verdict, and
// the scenario.verdict gauge.
func TestRunScenarioKinds(t *testing.T) {
	scenarios := []loadgen.Scenario{
		{Kind: loadgen.SingleStream, LatencyBound: time.Second},
		{Kind: loadgen.MultiStream, LatencyBound: time.Second, Streams: 2},
		{Kind: loadgen.Server, TargetRate: 300, Seed: 7, LatencyBound: time.Second},
		{Kind: loadgen.Offline},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(string(sc.Kind), func(t *testing.T) {
			r := &Runner{}
			cfg := scenarioConfig("flink")
			cfg.Telemetry = telemetry.New()
			res, err := r.RunScenario(cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict == nil {
				t.Fatal("scenario run returned no verdict")
			}
			if res.Verdict.Scenario != sc.Kind {
				t.Fatalf("verdict names %q, want %q", res.Verdict.Scenario, sc.Kind)
			}
			// At second-scale bounds on a trivial model, every latency
			// scenario must pass; offline books unconditionally.
			if !res.Verdict.Pass {
				t.Fatalf("scenario failed: %+v (metrics %+v)", res.Verdict, res.Metrics.Latency)
			}
			v, ok := res.Telemetry.Gauges["scenario.verdict"]
			if !ok || v != 1 {
				t.Fatalf("scenario.verdict gauge = %d (present %v), want 1", v, ok)
			}
			if res.Metrics.Consumed == 0 {
				t.Fatal("scenario run consumed nothing")
			}
		})
	}
}

// TestRunScenarioClosedLoop: the single-stream gate must keep at most
// one query outstanding — with issue-on-completion, produced can exceed
// consumed by at most the stream window.
func TestRunScenarioClosedLoop(t *testing.T) {
	r := &Runner{}
	cfg := scenarioConfig("kafka-streams")
	res, err := r.RunScenario(cfg, loadgen.Scenario{Kind: loadgen.SingleStream, LatencyBound: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Produced == 0 {
		t.Fatal("closed-loop run produced nothing")
	}
	if gap := res.Metrics.Produced - res.Metrics.Consumed; gap > 1 {
		t.Fatalf("single-stream left %d queries outstanding, want ≤ 1", gap)
	}
}

// TestRunScenarioDeterministicVerdicts: the same scenario seed twice
// yields the identical arrival schedule (byte-pinned upstream) and the
// same verdict shape — constraint, bound, unit, scenario — with only
// the measured metric free to vary.
func TestRunScenarioDeterministicVerdicts(t *testing.T) {
	sc := loadgen.Scenario{Kind: loadgen.Server, TargetRate: 300, Seed: 11, LatencyBound: time.Second}
	r := &Runner{}
	a, err := r.RunScenario(scenarioConfig("flink"), sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunScenario(scenarioConfig("flink"), sc)
	if err != nil {
		t.Fatal(err)
	}
	va, vb := *a.Verdict, *b.Verdict
	if va.Constraint != vb.Constraint || va.Bound != vb.Bound || va.Unit != vb.Unit ||
		va.Scenario != vb.Scenario || va.Pass != vb.Pass {
		t.Fatalf("verdicts diverged across identical runs:\n%+v\n%+v", va, vb)
	}
}

// TestFindServerCapacity: the sweep books the highest passing offered
// rate. A generous bound makes every step pass, so capacity must be the
// top rate; an impossible bound books zero.
func TestFindServerCapacity(t *testing.T) {
	r := &Runner{}
	sc := loadgen.Scenario{Kind: loadgen.Server, Seed: 5, LatencyBound: time.Second}
	rates := []float64{100, 200}
	capacity, points, err := r.FindServerCapacity(scenarioConfig("flink"), sc, rates)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(rates) {
		t.Fatalf("%d sweep points, want %d", len(points), len(rates))
	}
	if capacity != 200 {
		t.Fatalf("capacity %v, want 200 (all steps pass at a 1s bound)", capacity)
	}
	sc.LatencyBound = time.Nanosecond
	capacity, _, err = r.FindServerCapacity(scenarioConfig("flink"), sc, []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	if capacity != 0 {
		t.Fatalf("capacity %v under an impossible bound, want 0", capacity)
	}
	if _, _, err := r.FindServerCapacity(scenarioConfig("flink"), loadgen.Scenario{Kind: loadgen.Offline}, rates); err == nil {
		t.Fatal("capacity sweep accepted a non-server scenario")
	}
}
