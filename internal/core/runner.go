package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"crayfish/internal/broker"
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
	scorer, cleanup, err := BuildScorerNet(cfg.Serving, m, cfg.ParallelismDefault, cfg.Network)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	return r.runWithScorer(cfg, scorer)
}

// runWithScorer executes a validated experiment against an explicit
// scorer. It backs both Run and the no-op broker validation.
func (r *Runner) runWithScorer(cfg Config, scorer serving.Scorer) (*Result, error) {
	codec := r.Codec
	if codec == nil {
		codec = JSONCodec{}
	}
	// Scorer-stage telemetry wraps here so every serving mode — embedded
	// runtime or external client — reports through the same metrics.
	scorer = serving.Instrument(scorer, cfg.Telemetry)

	transport := r.Transport
	if transport == nil {
		bcfg := broker.DefaultConfig()
		bcfg.Network = cfg.Network
		// A private broker joins the run's registry; a shared remote
		// broker daemon reports through its own (brokerd -metrics-addr).
		bcfg.Metrics = cfg.Telemetry
		transport = broker.New(bcfg)
	}
	// Topic setup is idempotent: a shared broker daemon may have been
	// started with the topics pre-created.
	for _, topic := range []string{InputTopic, OutputTopic} {
		if err := transport.CreateTopic(topic, cfg.Partitions); err != nil && !isTopicExists(err) {
			return nil, err
		}
	}
	defer func() {
		// Shared brokers persist across runs; drop this run's topics
		// so reruns start clean. Private in-process brokers are
		// discarded wholesale.
		if r.Transport != nil {
			// Best-effort: a shared broker may already be shutting down.
			_ = transport.DeleteTopic(InputTopic)
			_ = transport.DeleteTopic(OutputTopic)
		}
	}()

	engine := r.Engine
	if engine == nil {
		var err error
		engine, err = sps.New(cfg.Engine)
		if err != nil {
			return nil, err
		}
	}
	job, err := engine.Run(sps.JobSpec{
		Transport:      transport,
		InputTopic:     InputTopic,
		OutputTopic:    OutputTopic,
		Group:          fmt.Sprintf("crayfish-sut-%d", atomic.AddInt64(&runSeq, 1)),
		Transform:      MakeTransform(codec, scorer),
		BatchTransform: MakeBatchTransform(codec, scorer),
		Batching:       cfg.Batching,
		Parallelism: sps.Parallelism{
			Default: cfg.ParallelismDefault,
			Source:  cfg.SourceParallelism,
			Sink:    cfg.SinkParallelism,
		},
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
	produced, prodErr := producer.Run(nil)

	// Drain: wait until the SUT catches up or the drain window closes.
	drain := r.DrainTimeout
	if drain <= 0 {
		drain = cfg.Workload.Duration
		if drain < 250*time.Millisecond {
			drain = 250 * time.Millisecond
		}
	}
	oc.waitForSamples(produced, time.Now().Add(drain))

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
		return nil, fmt.Errorf("core: run produced %d events but %w (engine error: %v)", produced, err, engineErr)
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
