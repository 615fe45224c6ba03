package core

import (
	"fmt"

	"crayfish/internal/loadgen"
	"crayfish/internal/serving"
)

// NoopScorer is the no-op inference task from §4.3: the paper verifies
// that the Kafka deployment is not the experiments' bottleneck by
// measuring the pipeline's maximum throughput with inference disabled.
// It echoes a constant prediction without touching the inputs.
type NoopScorer struct {
	// Inputs is the per-point input length the pipeline claims.
	Inputs int
	// Outputs is the per-point prediction width to emit.
	Outputs int
}

// Name implements serving.Scorer.
func (n NoopScorer) Name() string { return "noop" }

// InputLen implements serving.Scorer.
func (n NoopScorer) InputLen() int { return n.Inputs }

// OutputSize implements serving.Scorer.
func (n NoopScorer) OutputSize() int { return n.Outputs }

// Score implements serving.Scorer: constant output, no compute.
//
//lint:lent inputs
func (n NoopScorer) Score(inputs []float32, count int) ([]float32, error) {
	if err := serving.ValidateBatch(inputs, count, n.Inputs); err != nil {
		return nil, err
	}
	return make([]float32, count*n.Outputs), nil
}

// ValidateBrokerHeadroom runs the §4.3 broker-validation check: a no-op
// SUT must sustain at least headroom × targetRate; otherwise the broker
// (not the serving tool) would bound the measurements. It returns the
// no-op throughput and an error when the check fails.
func (r *Runner) ValidateBrokerHeadroom(cfg Config, targetRate, headroom float64) (float64, error) {
	if headroom <= 0 {
		headroom = 1
	}
	noop := cfg
	noop.Serving = ServingConfig{Mode: Embedded, Tool: "onnx"} // placeholder; replaced below
	load := loadgen.Constant(targetRate * headroom)
	noop.Workload.Load = &load
	if err := noop.Validate(); err != nil {
		return 0, err
	}
	scorer := NoopScorer{Inputs: noop.Workload.PointLen(), Outputs: 1}
	res, err := r.runWithScorer(noop, serving.Instrument(scorer, noop.Telemetry))
	if err != nil {
		return 0, err
	}
	if res.Metrics.Throughput < targetRate {
		return res.Metrics.Throughput, fmt.Errorf(
			"core: broker headroom check failed: no-op pipeline sustains %.1f events/s, below the %.1f events/s target",
			res.Metrics.Throughput, targetRate)
	}
	return res.Metrics.Throughput, nil
}
