package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/faults"
	"crayfish/internal/loadgen"
	"crayfish/internal/serving"
	"crayfish/internal/sps"
	"crayfish/internal/telemetry"
)

// runSeq disambiguates consumer groups when several runs share a broker.
var runSeq int64

// isTopicExists matches the already-exists error across transports (the
// TCP client re-creates errors from strings).
func isTopicExists(err error) bool {
	return errors.Is(err, broker.ErrTopicExists) ||
		strings.Contains(err.Error(), broker.ErrTopicExists.Error())
}

// Topic names used by every experiment, matching the paper's pipeline.
const (
	InputTopic  = "crayfish-in"
	OutputTopic = "crayfish-out"
)

// Result is one experiment run's outcome.
type Result struct {
	Config     Config
	Metrics    Metrics
	RunStart   time.Time
	Duplicates int
	// Samples holds per-batch measurements when Config.KeepSamples is
	// set (burst-recovery analysis needs them).
	Samples []Sample
	// EngineErr carries any asynchronous SUT error (the run still
	// reports whatever was measured).
	EngineErr error
	// Telemetry is the final live-metrics snapshot when the run was
	// configured with a telemetry registry (Config.Telemetry), nil
	// otherwise. See docs/OBSERVABILITY.md for the metric contract.
	Telemetry *telemetry.Snapshot
	// Verdict is the scenario's structured pass/fail outcome when the
	// run was driven by RunScenario; nil for plain runs.
	Verdict *loadgen.Verdict
}

// Runner executes experiments. The zero value runs on a private
// in-process broker; set Transport to point experiments at a remote
// broker daemon instead.
type Runner struct {
	// Transport overrides the broker; nil creates a fresh in-process
	// broker per run (fresh topics guarantee run isolation).
	Transport broker.Transport
	// Codec overrides the pipeline serialisation; nil means JSON, the
	// paper's default.
	Codec BatchCodec
	// DrainTimeout bounds the post-production drain; zero derives it
	// from the workload duration.
	DrainTimeout time.Duration
	// Engine overrides the processor instance (Config.Engine is then
	// only descriptive). Used to benchmark engine variants — e.g.
	// Flink with async I/O enabled — without registering them.
	Engine sps.Processor
}

// Run executes one experiment: broker + topics, SUT assembly, output
// consumer, rate-controlled producer, drain, analysis.
//
// The caller must have imported the engine packages (or the root crayfish
// package) so the configured engine is registered.
func (r *Runner) Run(cfg Config) (*Result, error) {
	scorer, cleanup, err := prepare(&cfg, nil)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	return r.runWithScorer(cfg, scorer)
}

// prepare is the prelude every runner shares: validate and default the
// config, build the model, check the workload's shape against it, and
// build the scorer on cfg.Network. With a fault run's injector the
// scorer sits behind the injector's fault windows and its serving daemon
// under the injector's crash/restart events. Scorer-stage telemetry
// wraps last, so every serving mode — embedded runtime or external
// client — reports through the same metrics.
func prepare(cfg *Config, inj *faults.Injector) (serving.Scorer, func(), error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	m, err := cfg.Model.Build()
	if err != nil {
		return nil, nil, err
	}
	if cfg.Workload.PointLen() != m.InputLen() {
		return nil, nil, fmt.Errorf("core: workload shape %v does not match model input %v", cfg.Workload.InputShape, m.InputShape)
	}
	scorer, cleanup, err := buildScorer(cfg.Serving, m, cfg.ParallelismDefault, cfg.Network, inj, cfg.Telemetry)
	if err != nil {
		return nil, nil, err
	}
	if inj != nil {
		scorer = &faultScorer{inner: scorer, inj: inj}
	}
	return serving.Instrument(scorer, cfg.Telemetry), cleanup, nil
}

// brokerConfig configures a run's private broker. It joins the run's
// registry (a shared remote broker daemon reports through its own,
// brokerd -metrics-addr); a fault run's injector applies the plan's
// message faults at its produce boundary.
func brokerConfig(cfg Config, inj *faults.Injector) broker.Config {
	bcfg := broker.DefaultConfig()
	bcfg.Network = cfg.Network
	bcfg.Metrics = cfg.Telemetry
	bcfg.Faults = inj
	return bcfg
}

// runWithScorer measures a validated experiment against an explicit
// scorer on the runner's broker. It backs both Run and the no-op broker
// validation.
func (r *Runner) runWithScorer(cfg Config, scorer serving.Scorer) (*Result, error) {
	transport := r.Transport
	if transport == nil {
		transport = broker.New(brokerConfig(cfg, nil))
	} else {
		// Shared brokers persist across runs; drop this run's topics so
		// reruns start clean (best-effort: the broker may already be
		// shutting down). Private in-process brokers are discarded
		// wholesale.
		defer func() {
			_ = transport.DeleteTopic(InputTopic)
			_ = transport.DeleteTopic(OutputTopic)
		}()
	}
	books, err := r.measure(cfg, transport, scorer, nil)
	if err != nil {
		return nil, err
	}
	return books.Result, nil
}

// faultRun is what a fault-injection run hands the measurement loop on
// top of an ordinary run's arguments.
type faultRun struct {
	plan faults.Plan
	inj  *faults.Injector
}

// measure is the one measurement loop (§3.1, §3.3): launch the engine
// job over the transport, start the output consumer, stream the workload,
// drain the backlog, stop everything and analyze. It returns the run's
// books: the Result inside the produced/accounted/lost accounting every
// run has. With fr set the plan's injector fires while the workload
// streams, records retry through its fault windows, the drain waits the
// fault schedule out, and the books carry the fault log, the recovery
// time and the degraded-window latency as well.
func (r *Runner) measure(cfg Config, transport broker.Transport, scorer serving.Scorer, fr *faultRun) (*RecoveryResult, error) {
	// Topic setup is idempotent: a shared broker daemon may have been
	// started with the topics pre-created.
	for _, topic := range []string{InputTopic, OutputTopic} {
		if err := transport.CreateTopic(topic, cfg.Partitions); err != nil && !isTopicExists(err) {
			return nil, err
		}
	}

	engine := r.Engine
	if engine == nil {
		var err error
		engine, err = sps.New(cfg.Engine)
		if err != nil {
			return nil, err
		}
	}
	spec := sps.JobSpec{
		Transport:      transport,
		InputTopic:     InputTopic,
		OutputTopic:    OutputTopic,
		Group:          fmt.Sprintf("crayfish-sut-%d", atomic.AddInt64(&runSeq, 1)),
		Transform:      MakeTransform(r.Codec, scorer),
		BatchTransform: MakeBatchTransform(r.Codec, scorer),
		Batching:       cfg.Batching,
		Parallelism: sps.Parallelism{
			Default: cfg.ParallelismDefault,
			Source:  cfg.SourceParallelism,
			Sink:    cfg.SinkParallelism,
		},
		Metrics: cfg.Telemetry,
	}
	if fr != nil {
		spec.Retry = recoveryRetry(fr.plan)
	}
	// The consumer and the producer only read their topic's partition
	// count here; built before anything runs, a failure leaves nothing to
	// stop.
	oc, err := NewOutputConsumer(transport, OutputTopic, r.Codec)
	if err != nil {
		return nil, err
	}
	oc.Metrics = cfg.Telemetry
	producer, err := NewInputProducer(transport, InputTopic, cfg.Workload, r.Codec)
	if err != nil {
		return nil, err
	}
	producer.Metrics = cfg.Telemetry

	job, err := engine.Run(spec)
	if err != nil {
		return nil, err
	}
	consumerStop := make(chan struct{})
	consumerDone := make(chan error, 1)
	go func() { consumerDone <- oc.Run(consumerStop) }()

	if cfg.closedStreams > 0 {
		// Closed-loop issue control (single-/multi-stream scenarios):
		// event #issued may only go out once all but the window's worth
		// of its predecessors completed. The gate shares the run
		// deadline, so a stalled SUT ends production instead of
		// deadlocking it.
		streams := cfg.closedStreams
		gateDeadline := time.Now().Add(cfg.Workload.Duration)
		producer.Gate = func(issued int) bool {
			return oc.WaitForCount(issued+1-streams, gateDeadline)
		}
	}

	runStart := time.Now()
	if fr != nil {
		fr.inj.Start()
	}
	produced, prodErr := producer.Run(nil)

	// Drain: wait until the SUT catches up or the drain window closes.
	expected := produced
	var faultBudget time.Duration
	if fr != nil {
		// The expected count is only knowable after production: planned
		// drops never reach the pipeline. The derived drain budget covers
		// the whole fault schedule on top of the usual one.
		expected -= fr.inj.CountsFor(InputTopic)[faults.Drop]
		faultBudget = fr.plan.LastWindowEnd() + 2*time.Second
	}
	drain := r.DrainTimeout
	if drain <= 0 {
		drain = cfg.Workload.Duration
		if drain < 250*time.Millisecond {
			drain = 250 * time.Millisecond
		}
		drain += faultBudget
	}
	caughtUp := oc.waitForSamples(expected, time.Now().Add(drain))
	caughtUpAt := time.Now()

	if fr != nil {
		fr.inj.Stop()
	}
	engineErr := job.Stop()
	close(consumerStop)
	if err := <-consumerDone; err != nil && engineErr == nil {
		engineErr = err
	}
	if prodErr != nil && engineErr == nil {
		engineErr = prodErr
	}

	samples := oc.Samples()
	res, err := newResult(cfg, samples, produced, runStart)
	if err != nil {
		return nil, fmt.Errorf("core: run produced %d events but %w (engine error: %v)", produced, err, engineErr)
	}
	res.Duplicates, res.EngineErr = oc.Duplicates(), engineErr
	books := &RecoveryResult{
		Result:     res,
		Produced:   produced,
		Dropped:    produced - expected,
		Duplicated: res.Duplicates,
		Accounted:  len(samples),
		Lost:       expected - len(samples),
		Recovered:  caughtUp,
	}
	if fr != nil {
		books.FaultLog = faults.FormatLog(fr.inj.Log())
		if ttr := caughtUpAt.Sub(runStart.Add(fr.plan.LastWindowEnd())); caughtUp && ttr > 0 {
			books.TimeToRecover = ttr
		}
		books.DegradedP95, books.DegradedSamples = degradedLatency(samples, runStart, fr.plan)
	}
	return books, nil
}

// newResult analyzes a run's samples into its Result.
func newResult(cfg Config, samples []Sample, produced int, runStart time.Time) (*Result, error) {
	metrics, err := Analyze(samples, produced, cfg.WarmupFraction)
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg, Metrics: metrics, RunStart: runStart}
	if cfg.KeepSamples {
		res.Samples = samples
	}
	if cfg.Telemetry != nil {
		res.Telemetry = cfg.Telemetry.Snapshot()
	}
	return res, nil
}

// RunAveraged runs the experiment `runs` times (the paper runs each twice)
// and returns all results; callers aggregate as needed.
func (r *Runner) RunAveraged(cfg Config, runs int) ([]*Result, error) {
	if runs <= 0 {
		runs = 1
	}
	out := make([]*Result, 0, runs)
	for i := 0; i < runs; i++ {
		run := cfg
		run.Workload.Seed = cfg.Workload.Seed + int64(i)
		res, err := r.Run(run)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// MeanThroughput averages throughput across runs.
func MeanThroughput(results []*Result) float64 {
	if len(results) == 0 {
		return 0
	}
	var sum float64
	for _, r := range results {
		sum += r.Metrics.Throughput
	}
	return sum / float64(len(results))
}

// MeanLatency averages mean latency across runs.
func MeanLatency(results []*Result) time.Duration {
	if len(results) == 0 {
		return 0
	}
	var sum float64
	for _, r := range results {
		sum += float64(r.Metrics.Latency.Mean)
	}
	return time.Duration(sum / float64(len(results)))
}
