package core

import (
	"fmt"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/faults"
	"crayfish/internal/resilience"
	"crayfish/internal/serving"
)

// RecoveryResult is the outcome of a fault-injection run: the usual
// measurement plus the loss/duplication books and recovery timings.
type RecoveryResult struct {
	// Result is the ordinary run outcome (latency/throughput metrics,
	// telemetry snapshot).
	Result *Result
	// FaultLog is the injector's canonical log (faults.FormatLog). Two
	// runs of the same plan over the same workload produce identical
	// bytes — the replay artefact.
	FaultLog string
	// Produced counts events the producer generated; Dropped and
	// Duplicated count broker-boundary message faults; Accounted counts
	// unique batches the output consumer measured. Lost = Produced −
	// Dropped − Accounted: records the pipeline failed to deliver beyond
	// the planned drops (0 on a clean recovery).
	Produced   int
	Dropped    int
	Duplicated int
	Accounted  int
	Lost       int
	// Recovered reports whether the consumer accounted for every
	// expected record before the drain deadline.
	Recovered bool
	// TimeToRecover is how long after the last planned fault window
	// closed the pipeline needed to account for every expected record
	// (0 when the pipeline was already caught up, meaningless unless
	// Recovered).
	TimeToRecover time.Duration
	// DegradedP95 is the p95 end-to-end latency of the samples that
	// completed while fault windows were open; DegradedSamples counts
	// them.
	DegradedP95     time.Duration
	DegradedSamples int
}

// RunRecovery executes one experiment while the fault plan fires: the
// broker applies the plan's message faults, timed events crash/restart
// the external serving daemon (when cfg serves externally) and open
// scorer-error windows, and the SUT's clients ride the
// faults out with retries and circuit breakers. The run then reports
// time-to-recover and the loss/duplication accounting.
//
// Recovery runs need the fault hook at the broker's produce boundary,
// so they always run on a private in-process broker; a Runner with an
// overriding Transport is rejected.
func (r *Runner) RunRecovery(cfg Config, plan faults.Plan) (*RecoveryResult, error) {
	if r.Transport != nil {
		return nil, fmt.Errorf("core: recovery runs require the private in-process broker (Transport override set)")
	}
	fr, scorer, cleanup, err := prepareFaultRun(&cfg, plan)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	return r.measure(cfg, broker.New(brokerConfig(cfg, fr.inj)), scorer, fr)
}

// prepareFaultRun is the prelude single-broker and cluster recovery
// runs share: the plan's injector, counting what it fires into
// faults.injected.*, and the SUT prepared under it. The two runs differ
// only in the transport they build over brokerConfig(cfg, fr.inj).
func prepareFaultRun(cfg *Config, plan faults.Plan) (*faultRun, serving.Scorer, func(), error) {
	inj, err := faults.New(plan)
	if err != nil {
		return nil, nil, nil, err
	}
	if reg := cfg.Telemetry; reg != nil {
		inj.OnInject(func(k faults.Kind) {
			reg.Counter("faults.injected." + string(k)).Inc()
		})
	}
	scorer, cleanup, err := prepare(cfg, inj)
	if err != nil {
		return nil, nil, nil, err
	}
	return &faultRun{plan: plan, inj: inj}, scorer, cleanup, nil
}

// recoveryRetry builds the job-level retry policy for a fault plan: the
// wall-time budget covers the longest planned fault window plus slack,
// so records arriving mid-outage wait the outage out instead of being
// dropped.
func recoveryRetry(plan faults.Plan) *resilience.Retry {
	var maxWindow time.Duration
	for _, e := range plan.Events {
		if e.Duration > maxWindow {
			maxWindow = e.Duration
		}
	}
	return &resilience.Retry{
		MaxElapsed: maxWindow + 2*time.Second,
		BaseDelay:  time.Millisecond,
		MaxDelay:   20 * time.Millisecond,
	}
}

// degradedLatency computes the p95 end-to-end latency over the samples
// whose measurement completed inside a planned fault window.
func degradedLatency(samples []Sample, start time.Time, plan faults.Plan) (time.Duration, int) {
	var degraded []Sample
	for _, s := range samples {
		off := s.End.Sub(start)
		for _, e := range plan.Events {
			if off >= e.At && off < e.At+e.Duration {
				degraded = append(degraded, s)
				break
			}
		}
	}
	if len(degraded) == 0 {
		return 0, 0
	}
	return latencyStats(degraded).P95, len(degraded)
}

// faultScorer sits between the transform and the real scorer, applying
// the injector's lazy fault windows: a scorer-error window fails the
// call retryably.
type faultScorer struct {
	inner serving.Scorer
	inj   *faults.Injector
}

func (f *faultScorer) Name() string    { return f.inner.Name() }
func (f *faultScorer) InputLen() int   { return f.inner.InputLen() }
func (f *faultScorer) OutputSize() int { return f.inner.OutputSize() }

// Score injects the configured fault, then defers to the wrapped
// scorer under the same buffer-ownership contract.
//
//lint:lent inputs
func (f *faultScorer) Score(inputs []float32, n int) ([]float32, error) {
	if err := f.inj.ScorerFault(); err != nil {
		return nil, err
	}
	return f.inner.Score(inputs, n)
}
