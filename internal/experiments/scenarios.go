package experiments

import (
	"fmt"
	"time"

	"crayfish/internal/core"
	"crayfish/internal/loadgen"
)

// scenarioSuite runs the four MLPerf-style load scenarios
// (docs/SCENARIOS.md) across engine × serving tool and books each run's
// structured verdict: single-stream (issue-on-completion, p90), multi-
// stream (fixed outstanding window, p99), server (offered Poisson rate
// under a p99 bound), offline (unpaced, throughput booked). A final
// offered-load sweep steps the server scenario's Poisson rate on the
// fastest pair and reports the knee — the highest offered rate that
// still meets the bound, the capacity number BENCH_inference.json tracks
// as server_capacity_rps.
func scenarioSuite(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Scenario S1",
		Title:  "MLPerf-style scenarios (FFNN, mp=1) across engine × serving tool, plus the server capacity sweep",
		Header: []string{"scenario", "engine", "serving", "constraint", "measured", "bound", "verdict"},
	}
	d := o.scaled(2 * time.Second)
	// The bound is deliberately loose for the in-process harness: the
	// suite demonstrates the verdict machinery; tight-bound studies
	// belong to the capacity sweep below.
	const bound = 250 * time.Millisecond
	pairs := []struct {
		engine  string
		serving core.ServingConfig
	}{
		{"flink", embeddedTool("onnx")},
		{"flink", externalTool("tf-serving")},
		{"kafka-streams", embeddedTool("onnx")},
		{"kafka-streams", externalTool("tf-serving")},
	}
	scenarios := []loadgen.Scenario{
		{Kind: loadgen.SingleStream, LatencyBound: bound},
		{Kind: loadgen.MultiStream, Streams: 4, LatencyBound: bound},
		{Kind: loadgen.Server, TargetRate: 200, Seed: 7, LatencyBound: bound},
		{Kind: loadgen.Offline},
	}
	runner := &core.Runner{}
	for _, sc := range scenarios {
		for _, p := range pairs {
			w := o.ffnnWorkload()
			w.Duration = d
			cfg := o.baseConfig(p.engine, p.serving, w, "ffnn", 1)
			res, err := runner.RunScenario(cfg, sc)
			if err != nil {
				return nil, fmt.Errorf("scenario %s %s/%s: %w", sc.Kind, p.engine, p.serving.Tool, err)
			}
			v := res.Verdict
			status := "PASS"
			if !v.Pass {
				status = "FAIL"
			}
			boundCell := fmt.Sprintf("%g %s", v.Bound, v.Unit)
			if v.Bound == 0 {
				boundCell = "—"
			}
			r.addRow(string(sc.Kind), p.engine, string(p.serving.Mode)+" "+p.serving.Tool,
				v.Constraint, fmt.Sprintf("%.2f %s", v.Metric, v.Unit), boundCell, status)
			o.logf("scenario %s %s/%s: %s", sc.Kind, p.engine, p.serving.Tool, v)
		}
	}

	// Percentile-latency-vs-offered-load sweep: step the server
	// scenario's Poisson rate on flink/onnx and find the knee.
	sweepRates := []float64{250, 500, 1000, 2000}
	w := o.ffnnWorkload()
	w.Duration = d
	sweepCfg := o.baseConfig("flink", embeddedTool("onnx"), w, "ffnn", 1)
	sweepSc := loadgen.Scenario{Kind: loadgen.Server, Seed: 7, LatencyBound: bound}
	capacity, points, err := runner.FindServerCapacity(sweepCfg, sweepSc, sweepRates)
	if err != nil {
		return nil, fmt.Errorf("capacity sweep: %w", err)
	}
	for _, pt := range points {
		v := pt.Result.Verdict
		status := "PASS"
		if !v.Pass {
			status = "FAIL"
		}
		r.addRow("server sweep", "flink", "embedded onnx",
			fmt.Sprintf("offered %s ev/s", fmtRate(pt.Rate)),
			fmt.Sprintf("%.2f %s", v.Metric, v.Unit),
			fmt.Sprintf("%g %s", v.Bound, v.Unit), status)
		o.logf("capacity sweep at %s ev/s: %s", fmtRate(pt.Rate), v)
	}
	r.addNote("server capacity (knee of the p99-vs-offered-load curve on flink/onnx): %s events/s", fmtRate(capacity))
	r.addNote("arrival schedules are seed-deterministic: replaying a scenario's seed reproduces the schedule byte for byte (docs/SCENARIOS.md)")
	return r, nil
}
