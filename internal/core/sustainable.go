package core

import (
	"fmt"
	"time"

	"crayfish/internal/loadgen"
)

// SustainableThroughputOptions tunes FindSustainableRate.
type SustainableThroughputOptions struct {
	// Low and High bound the search in events/s. High must be above
	// the true sustainable rate for the search to converge onto it.
	Low, High float64
	// ProbeDuration is each probe run's length.
	ProbeDuration time.Duration
	// Tolerance ends the search when High/Low falls below 1+Tolerance
	// (default 0.1).
	Tolerance float64
	// SustainedFraction is the consumed/produced ratio a probe must
	// reach to count as sustained (default 0.95, the usual
	// sustainable-throughput criterion).
	SustainedFraction float64
}

// FindSustainableRate runs the open-loop scenario from §4.1: it drives
// the SUT at candidate input rates and binary-searches for the maximum
// rate the processor sustains — the paper's sustainable throughput (ST).
// It returns the highest sustained rate found.
func (r *Runner) FindSustainableRate(cfg Config, opts SustainableThroughputOptions) (float64, error) {
	if opts.Low <= 0 {
		opts.Low = 1
	}
	if opts.High <= opts.Low {
		return 0, fmt.Errorf("core: sustainable search needs High (%.1f) above Low (%.1f)", opts.High, opts.Low)
	}
	if opts.ProbeDuration <= 0 {
		opts.ProbeDuration = time.Second
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 0.1
	}
	if opts.SustainedFraction <= 0 || opts.SustainedFraction > 1 {
		opts.SustainedFraction = 0.95
	}

	probe := func(rate float64) (bool, error) {
		run := cfg
		load := loadgen.Constant(rate)
		run.Workload.Load = &load
		run.Workload.Duration = opts.ProbeDuration
		res, err := r.Run(run)
		if err != nil {
			return false, err
		}
		if res.Metrics.Produced == 0 {
			return false, fmt.Errorf("core: sustainable probe at %.1f events/s produced nothing", rate)
		}
		// The deployment must actually reach the candidate rate on the
		// producing side and keep up on the consuming side.
		achieved := float64(res.Metrics.Produced) / opts.ProbeDuration.Seconds()
		if achieved < opts.SustainedFraction*rate {
			return false, nil
		}
		sustained := float64(res.Metrics.Consumed) >= opts.SustainedFraction*float64(res.Metrics.Produced)
		return sustained, nil
	}

	// The floor must be sustainable, otherwise there is nothing to find.
	ok, err := probe(opts.Low)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("core: SUT does not sustain even %.1f events/s", opts.Low)
	}

	lo, hi := opts.Low, opts.High
	for hi/lo > 1+opts.Tolerance {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
