package core

import (
	"fmt"

	"crayfish/internal/loadgen"
)

// JudgeScenario applies a scenario's constraint to a run's metrics —
// the per-scenario half of the analyzer (§3.3): the latency percentiles
// and throughput Analyze computed become the Observed summary the
// scenario's validator judges.
func JudgeScenario(m Metrics, sc loadgen.Scenario) loadgen.Verdict {
	return sc.Judge(loadgen.Observed{
		P50:        m.Latency.P50,
		P90:        m.Latency.P90,
		P95:        m.Latency.P95,
		P99:        m.Latency.P99,
		Throughput: m.Throughput,
	})
}

// RunScenario executes one experiment under an MLPerf-style scenario
// (docs/SCENARIOS.md): the scenario's arrival policy replaces the
// workload's pacing, the closed-loop scenarios gate the producer on
// completions, and the run's metrics are judged against the scenario's
// constraint. The verdict lands in Result.Verdict and, when telemetry is
// enabled, in the scenario.verdict gauge (1 pass, 0 fail).
func (r *Runner) RunScenario(cfg Config, sc loadgen.Scenario) (*Result, error) {
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	policy := sc.Policy()
	if policy.Process == loadgen.ProcessPoisson && policy.Seed == 0 {
		// Default the arrival seed to the workload's data seed so a
		// scenario config is reproducible from one number.
		policy.Seed = cfg.Workload.Seed
	}
	cfg.Workload.Load = &policy
	switch sc.Kind {
	case loadgen.SingleStream, loadgen.MultiStream:
		cfg.closedStreams = sc.Streams
		// Every issued event must reach the broker immediately: a
		// producer-side send batch would hold back the very completions
		// the issue gate waits on.
		cfg.Workload.ProducerBatch = 1
	}
	res, err := r.Run(cfg)
	if err != nil {
		return nil, err
	}
	v := JudgeScenario(res.Metrics, sc)
	res.Verdict = &v
	if cfg.Telemetry != nil {
		g := cfg.Telemetry.Gauge("scenario.verdict")
		if v.Pass {
			g.Set(1)
		} else {
			g.Set(0)
		}
		res.Telemetry = cfg.Telemetry.Snapshot()
	}
	return res, nil
}

// CapacityPoint is one step of an offered-load sweep.
type CapacityPoint struct {
	// Rate is the offered Poisson rate in events/s.
	Rate float64
	// Result is the step's full run result, verdict included.
	Result *Result
}

// FindServerCapacity steps the server scenario's offered Poisson rate
// through rates (ascending) and returns the highest offered rate whose
// run still meets the scenario's tail-latency bound — the knee of the
// percentile-latency-vs-offered-load curve, reported as
// server_capacity_rps in BENCH_inference.json — along with every step's
// result. A capacity of zero means no offered rate passed.
func (r *Runner) FindServerCapacity(cfg Config, sc loadgen.Scenario, rates []float64) (float64, []CapacityPoint, error) {
	sc = sc.Normalize()
	if sc.Kind != loadgen.Server {
		return 0, nil, fmt.Errorf("core: capacity sweep needs a server scenario, got %q", sc.Kind)
	}
	if len(rates) == 0 {
		return 0, nil, fmt.Errorf("core: capacity sweep needs at least one offered rate")
	}
	var capacity float64
	points := make([]CapacityPoint, 0, len(rates))
	for _, rate := range rates {
		step := sc
		step.TargetRate = rate
		res, err := r.RunScenario(cfg, step)
		if err != nil {
			return capacity, points, err
		}
		points = append(points, CapacityPoint{Rate: rate, Result: res})
		if res.Verdict.Pass && rate > capacity {
			capacity = rate
		}
	}
	return capacity, points, nil
}
