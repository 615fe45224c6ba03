package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/faults"
	"crayfish/internal/gpu"
	"crayfish/internal/model"
	"crayfish/internal/modelfmt"
	"crayfish/internal/resilience"
	"crayfish/internal/serving"
	"crayfish/internal/serving/external"
	"crayfish/internal/sps"
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
// scorer-error / slow-replica windows, and the SUT's clients ride the
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := cfg.Model.Build()
	if err != nil {
		return nil, err
	}
	if cfg.Workload.PointLen() != m.InputLen() {
		return nil, fmt.Errorf("core: workload shape %v does not match model input %v", cfg.Workload.InputShape, m.InputShape)
	}
	inj, err := faults.New(plan)
	if err != nil {
		return nil, err
	}
	if reg := cfg.Telemetry; reg != nil {
		inj.OnInject(func(k faults.Kind) {
			reg.Counter("faults.injected." + string(k)).Inc()
		})
	}

	scorer, cleanup, err := buildRecoveryScorer(cfg, m, inj)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	scorer = serving.Instrument(&faultScorer{inner: scorer, inj: inj}, cfg.Telemetry)

	bcfg := broker.DefaultConfig()
	bcfg.Network = cfg.Network
	bcfg.Metrics = cfg.Telemetry
	bcfg.Faults = inj
	transport := broker.New(bcfg)
	for _, topic := range []string{InputTopic, OutputTopic} {
		if err := transport.CreateTopic(topic, cfg.Partitions); err != nil {
			return nil, err
		}
	}
	return r.runRecoveryPipeline(cfg, plan, inj, transport, scorer)
}

// runRecoveryPipeline is the measurement loop shared by single-broker
// and cluster recovery runs: launch the engine job over the prepared
// transport (topics already created), stream the workload while the
// injector fires, drain the backlog, and book loss, duplication, and
// recovery timings.
func (r *Runner) runRecoveryPipeline(cfg Config, plan faults.Plan, inj *faults.Injector, transport broker.Transport, scorer serving.Scorer) (*RecoveryResult, error) {
	codec := r.Codec
	if codec == nil {
		codec = JSONCodec{}
	}
	engine := r.Engine
	var err error
	if engine == nil {
		engine, err = sps.New(cfg.Engine)
		if err != nil {
			return nil, err
		}
	}
	job, err := engine.Run(sps.JobSpec{
		Transport:   transport,
		InputTopic:  InputTopic,
		OutputTopic: OutputTopic,
		Group:       fmt.Sprintf("crayfish-sut-%d", atomic.AddInt64(&runSeq, 1)),
		Transform:   MakeTransform(codec, scorer),
		Parallelism: sps.Parallelism{
			Default: cfg.ParallelismDefault,
			Source:  cfg.SourceParallelism,
			Sink:    cfg.SinkParallelism,
		},
		Retry:   recoveryRetry(plan),
		Metrics: cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}

	oc, err := NewOutputConsumer(transport, OutputTopic, codec)
	if err != nil {
		_ = job.Stop()
		return nil, err
	}
	oc.Metrics = cfg.Telemetry
	consumerStop := make(chan struct{})
	consumerDone := make(chan error, 1)
	go func() { consumerDone <- oc.Run(consumerStop) }()

	producer, err := NewInputProducer(transport, InputTopic, cfg.Workload, codec)
	if err != nil {
		_ = job.Stop()
		close(consumerStop)
		<-consumerDone
		return nil, err
	}
	producer.Metrics = cfg.Telemetry

	runStart := time.Now()
	inj.Start()
	produced, prodErr := producer.Run(nil)

	// The expected record count is only knowable after production:
	// planned drops never reach the pipeline.
	drops := inj.CountsFor(InputTopic)[faults.Drop]
	expected := produced - drops

	// Drain until the pipeline has accounted for every surviving record
	// or the window closes. Recovery runs get a drain budget covering
	// the whole fault schedule on top of the usual workload-derived one.
	drain := r.DrainTimeout
	if drain <= 0 {
		drain = cfg.Workload.Duration
		if drain < 250*time.Millisecond {
			drain = 250 * time.Millisecond
		}
		drain += plan.LastWindowEnd() + 2*time.Second
	}
	recovered := oc.waitForSamples(expected, time.Now().Add(drain))
	recoveredAt := time.Now()

	inj.Stop()
	engineErr := job.Stop()
	close(consumerStop)
	if err := <-consumerDone; err != nil && engineErr == nil {
		engineErr = err
	}
	if prodErr != nil && engineErr == nil {
		engineErr = prodErr
	}

	samples := oc.Samples()
	metrics, err := Analyze(samples, produced, cfg.WarmupFraction)
	if err != nil {
		return nil, fmt.Errorf("core: recovery run produced %d events but %w (engine error: %v)", produced, err, engineErr)
	}
	res := &Result{
		Config:     cfg,
		Metrics:    metrics,
		RunStart:   runStart,
		Duplicates: oc.Duplicates(),
		EngineErr:  engineErr,
	}
	if cfg.KeepSamples {
		res.Samples = samples
	}
	if cfg.Telemetry != nil {
		res.Telemetry = cfg.Telemetry.Snapshot()
	}

	out := &RecoveryResult{
		Result:     res,
		FaultLog:   faults.FormatLog(inj.Log()),
		Produced:   produced,
		Dropped:    drops,
		Duplicated: oc.Duplicates(),
		Accounted:  len(samples),
		Lost:       expected - len(samples),
		Recovered:  recovered,
	}
	if recovered {
		if ttr := recoveredAt.Sub(runStart.Add(plan.LastWindowEnd())); ttr > 0 {
			out.TimeToRecover = ttr
		}
	}
	out.DegradedP95, out.DegradedSamples = degradedLatency(samples, runStart, plan)
	return out, nil
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
	var lats []time.Duration
	for _, s := range samples {
		off := s.End.Sub(start)
		for _, e := range plan.Events {
			if off >= e.At && off < e.At+e.Duration {
				lats = append(lats, s.Latency)
				break
			}
		}
	}
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(0.95 * float64(len(lats)-1))
	return lats[idx], len(lats)
}

// faultScorer sits between the transform and the real scorer, applying
// the injector's lazy fault windows: slow-replica delays stretch the
// call, scorer-error windows fail it retryably.
type faultScorer struct {
	inner serving.Scorer
	inj   *faults.Injector
}

func (f *faultScorer) Name() string    { return f.inner.Name() }
func (f *faultScorer) InputLen() int   { return f.inner.InputLen() }
func (f *faultScorer) OutputSize() int { return f.inner.OutputSize() }

// Score injects the configured delay/fault, then defers to the wrapped
// scorer under the same buffer-ownership contract.
//
//lint:lent inputs
func (f *faultScorer) Score(inputs []float32, n int) ([]float32, error) {
	if d := f.inj.ReplicaDelay(); d > 0 {
		time.Sleep(d)
	}
	if err := f.inj.ScorerFault(); err != nil {
		return nil, err
	}
	return f.inner.Score(inputs, n)
}

// buildRecoveryScorer assembles the serving side under fault
// supervision. Embedded serving builds normally (crash/restart events
// then fire with no registered target). External serving launches the
// daemon under a Supervisor, binds the injector's Crash/Restart events
// to it, and dials a resilient client — retry, circuit breaker, and
// the resilience.* metrics — so the pipeline rides the outage out.
func buildRecoveryScorer(cfg Config, m *model.Model, inj *faults.Injector) (serving.Scorer, func(), error) {
	if cfg.Serving.Mode != External || cfg.Serving.Addr != "" {
		return BuildScorerNet(cfg.Serving, m, cfg.ParallelismDefault, cfg.Network)
	}
	dev, err := gpu.ByName(cfg.Serving.Device)
	if err != nil {
		return nil, nil, err
	}
	kind := external.Kind(cfg.Serving.Tool)
	workers := cfg.Serving.Workers
	if workers <= 0 {
		workers = cfg.ParallelismDefault
	}
	f, err := external.Format(kind)
	if err != nil {
		return nil, nil, err
	}
	stored, err := modelfmt.Encode(f, m)
	if err != nil {
		return nil, nil, err
	}
	sup, err := external.NewSupervisor(external.Config{
		Kind:       kind,
		ModelBytes: stored,
		Workers:    workers,
		Device:     dev,
		Network:    cfg.Network,
	})
	if err != nil {
		return nil, nil, err
	}
	inj.Handle(faults.Crash, func(faults.Event) { _ = sup.Crash() })
	inj.Handle(faults.Restart, func(faults.Event) { _ = sup.Restart() })
	client, err := external.DialClientOpts(kind, sup.Addr(), external.ClientOptions{
		Retry:   &resilience.Retry{Attempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		Breaker: &resilience.Breaker{FailureThreshold: 5, Cooldown: 25 * time.Millisecond},
		Metrics: cfg.Telemetry,
	})
	if err != nil {
		_ = sup.Close()
		return nil, nil, err
	}
	cleanup := func() {
		_ = client.Close()
		_ = sup.Close()
	}
	return client, cleanup, nil
}
