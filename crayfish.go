// Package crayfish is an extensible benchmarking framework for machine
// learning inference in stream processing systems — a from-scratch Go
// reproduction of "Crayfish: Navigating the Labyrinth of Machine Learning
// Inference in Stream Processing Systems" (EDBT 2024).
//
// A Crayfish experiment wires an input workload producer, a Kafka-analogue
// message broker, a system under test (a stream processor running an
// inference pipeline against an embedded or external serving tool), and an
// output consumer that extracts end-to-end latencies from broker-side
// append timestamps:
//
//	cfg := crayfish.Config{
//		Workload: crayfish.Workload{
//			InputShape: []int{28, 28},
//			BatchSize:  1,
//			Load:       &crayfish.LoadPolicy{Process: crayfish.LoadConstant, Rate: 500},
//			Duration:   2 * time.Second,
//		},
//		Engine:  "flink",
//		Serving: crayfish.ServingConfig{Mode: crayfish.Embedded, Tool: "onnx"},
//		Model:   crayfish.ModelSpec{Name: "ffnn"},
//	}
//	res, err := crayfish.Run(cfg)
//
// Four stream processors ship in-tree (flink, kafka-streams, spark-ss,
// ray), three embedded serving runtimes (onnx, savedmodel, dl4j), three
// external serving frameworks (tf-serving, torchserve, ray-serve), and
// two reference models (the paper's FFNN and a ResNet). Everything —
// broker, engines, serving daemons, tensor kernels — is implemented in
// this repository on the standard library alone; see DESIGN.md.
package crayfish

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"crayfish/internal/batching"
	"crayfish/internal/broker"
	"crayfish/internal/core"
	"crayfish/internal/experiments"
	"crayfish/internal/faults"
	"crayfish/internal/gpu"
	"crayfish/internal/loadgen"
	"crayfish/internal/modelfmt"
	"crayfish/internal/netsim"
	"crayfish/internal/serving/external"
	"crayfish/internal/sps"
	"crayfish/internal/telemetry"

	// Register the four stream-processing engines.
	_ "crayfish/internal/sps/flink"
	_ "crayfish/internal/sps/kstreams"
	_ "crayfish/internal/sps/ray"
	_ "crayfish/internal/sps/sparkss"
)

// Core experiment types.
type (
	// Config describes one experiment: workload, system under test, and
	// measurement parameters.
	Config = core.Config
	// Workload carries the paper's Table 1 parameters (isz, bsz, and
	// ir/bd/tbb as its Load arrival policy) plus run duration and seeding.
	Workload = core.Workload
	// ServingConfig selects embedded or external serving, the tool,
	// and the device.
	ServingConfig = core.ServingConfig
	// ModelSpec selects a pre-trained model by name or supplies one.
	ModelSpec = core.ModelSpec
	// Runner executes experiments, optionally against a shared broker.
	Runner = core.Runner
	// Result is one experiment outcome.
	Result = core.Result
	// Metrics aggregates throughput and latency for a run.
	Metrics = core.Metrics
	// LatencyStats summarises a latency distribution.
	LatencyStats = core.LatencyStats
	// Sample is one per-batch end-to-end measurement.
	Sample = core.Sample
	// DataBatch is the CrayfishDataBatch unit of computation.
	DataBatch = core.DataBatch
	// BatchingPolicy enables dynamic micro-batching in the scoring
	// operator via Config.Batching: concurrent record scorings coalesce
	// into multi-record scorer invocations under size + linger triggers,
	// with an optional AIMD latency SLO tuning the batch size. See
	// docs/PERFORMANCE.md ("Dynamic batching").
	BatchingPolicy = batching.Policy
	// NetworkProfile models an inter-machine link.
	NetworkProfile = netsim.Profile
	// TelemetryRegistry collects live per-stage metrics during a run;
	// attach one via Config.Telemetry. See docs/OBSERVABILITY.md.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time copy of every metric,
	// returned in Result.Telemetry.
	TelemetrySnapshot = telemetry.Snapshot
)

// Serving modes.
const (
	// Embedded serving loads the model inside the stream operator.
	Embedded = core.Embedded
	// External serving delegates inference to a serving daemon.
	External = core.External
)

// LAN is the network profile matching the paper's measured GCP links.
var LAN = netsim.LAN

// Run executes one experiment on a private in-process broker.
func Run(cfg Config) (*Result, error) {
	return (&Runner{}).Run(cfg)
}

// Load-generation types (docs/SCENARIOS.md): a LoadPolicy declaratively
// selects the arrival process driving the producer (Workload.Load), and
// a Scenario wraps an arrival discipline with the MLPerf-style
// constraint its run is judged against.
type (
	// LoadPolicy describes a deterministic arrival process: constant,
	// Poisson, trace replay, phased composition, or saturation. Equal
	// policies (same seed) generate byte-identical schedules.
	LoadPolicy = loadgen.Policy
	// LoadPhase is one segment of a phased (diurnal/burst) composition.
	LoadPhase = loadgen.Phase
	// Scenario is one MLPerf-style load scenario with its constraint.
	Scenario = loadgen.Scenario
	// Verdict is a scenario's structured pass/fail outcome.
	Verdict = loadgen.Verdict
	// CapacityPoint is one step of a server capacity sweep.
	CapacityPoint = core.CapacityPoint
)

// Scenario kinds (the MLPerf Inference four, docs/SCENARIOS.md).
const (
	// ScenarioSingleStream issues one query at a time and books p90.
	ScenarioSingleStream = loadgen.SingleStream
	// ScenarioMultiStream keeps N queries outstanding and books p99.
	ScenarioMultiStream = loadgen.MultiStream
	// ScenarioServer offers Poisson arrivals under a p99 bound.
	ScenarioServer = loadgen.Server
	// ScenarioOffline issues everything unpaced and books throughput.
	ScenarioOffline = loadgen.Offline
)

// Arrival processes for Workload.Load.
const (
	LoadConstant = loadgen.ProcessConstant
	LoadPoisson  = loadgen.ProcessPoisson
	LoadTrace    = loadgen.ProcessTrace
	LoadPhased   = loadgen.ProcessPhased
	LoadSaturate = loadgen.ProcessSaturate
)

// RunScenario executes one experiment under an MLPerf-style scenario on
// a private in-process broker; the verdict lands in Result.Verdict.
func RunScenario(cfg Config, sc Scenario) (*Result, error) {
	return (&Runner{}).RunScenario(cfg, sc)
}

// FindServerCapacity steps the server scenario's offered Poisson rate
// through rates and returns the highest rate whose run still meets the
// tail-latency bound (the knee of the latency-vs-load curve), plus every
// step's result.
func FindServerCapacity(cfg Config, sc Scenario, rates []float64) (float64, []CapacityPoint, error) {
	return (&Runner{}).FindServerCapacity(cfg, sc, rates)
}

// Fault-injection types (docs/FAULTS.md): a FaultPlan is a reproducible
// chaos schedule — message-fault rules applied at the broker boundary
// and timed events that crash the serving daemon or degrade the scorer.
type (
	// FaultPlan is a seed-driven, replayable fault schedule.
	FaultPlan = faults.Plan
	// FaultRule is one message-fault clause (drop/duplicate/delay by
	// per-topic sequence window).
	FaultRule = faults.Rule
	// FaultEvent is one timed fault (crash, restart, scorer-error
	// window, broker crash or restart).
	FaultEvent = faults.Event
	// FaultKind names one fault type.
	FaultKind = faults.Kind
	// RecoveryResult is a recovery run's outcome: the usual Result plus
	// the loss/duplication accounting and recovery timings.
	RecoveryResult = core.RecoveryResult
	// ClusterSpec sizes a run's broker cluster (Config.Cluster); the
	// zero value is one node (docs/CLUSTER.md).
	ClusterSpec = core.ClusterSpec
)

// Fault kinds.
const (
	FaultDrop          = faults.Drop
	FaultDuplicate     = faults.Duplicate
	FaultDelay         = faults.Delay
	FaultCrash         = faults.Crash
	FaultRestart       = faults.Restart
	FaultScorerError   = faults.ScorerError
	FaultBrokerCrash   = faults.BrokerCrash
	FaultBrokerRestart = faults.BrokerRestart
)

// RunRecovery executes one experiment on a private broker cluster sized
// by cfg.Cluster while the fault plan fires, and reports
// time-to-recover, the loss/duplication books and the failovers.
// Broker-crash events kill named nodes and the partition-aware client
// re-routes; acked-record loss must stay 0 across a single leader crash.
// See docs/FAULTS.md and docs/CLUSTER.md.
func RunRecovery(cfg Config, plan FaultPlan) (*RecoveryResult, error) {
	return (&Runner{}).RunRecovery(cfg, plan)
}

// NewTelemetry creates a live-metrics registry to attach to
// Config.Telemetry (runs) or ServingDaemonConfig.Telemetry (serving
// daemons). The metric names it fills are documented in
// docs/OBSERVABILITY.md.
func NewTelemetry() *TelemetryRegistry { return telemetry.New() }

// DumpTelemetry starts a goroutine printing a snapshot of reg to w every
// interval, with per-counter rates between snapshots. The returned stop
// function halts it; both are inert when reg is nil or interval is not
// positive.
func DumpTelemetry(w io.Writer, reg *TelemetryRegistry, interval time.Duration) (stop func()) {
	return telemetry.Dump(w, reg, interval)
}

// TelemetryHandler serves JSON snapshots of reg over HTTP — the /metrics
// endpoint of brokerd and modelserver.
func TelemetryHandler(reg *TelemetryRegistry) http.Handler { return telemetry.Handler(reg) }

// SaveModel materialises a model and writes it to path in the given
// storage format ("onnx", "savedmodel", "torch", "h5").
func SaveModel(spec ModelSpec, format, path string) error {
	m, err := spec.Build()
	if err != nil {
		return err
	}
	data, err := modelfmt.Encode(modelfmt.Format(format), m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadStoredModel reads a model file in any of the four storage formats
// (auto-detected) and returns a ModelSpec serving it.
func LoadStoredModel(path string) (ModelSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ModelSpec{}, err
	}
	format, err := modelfmt.Sniff(data)
	if err != nil {
		return ModelSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	m, err := modelfmt.Decode(format, data)
	if err != nil {
		return ModelSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return ModelSpec{Custom: m}, nil
}

// FormatMetrics renders an experiment's performance statistics.
func FormatMetrics(m Metrics) string { return core.FormatMetrics(m) }

// WriteSamplesCSV exports per-batch measurements for external analysis.
func WriteSamplesCSV(w io.Writer, samples []Sample) error {
	return core.WriteSamplesCSV(w, samples)
}

// RunStandalone executes the broker-less baseline pipeline (Figure 13).
func RunStandalone(cfg Config) (*Result, error) {
	return core.RunStandalone(cfg)
}

// Engines lists the registered stream processors.
func Engines() []string { return sps.Names() }

// EmbeddedTools lists the embedded serving runtimes.
func EmbeddedTools() []string { return []string{"onnx", "savedmodel", "dl4j"} }

// ExternalTools lists the external serving frameworks.
func ExternalTools() []string { return []string{"tf-serving", "torchserve", "ray-serve"} }

// Experiment types for regenerating the paper's tables and figures.
type (
	// ExperimentOptions scales and instruments a paper experiment.
	ExperimentOptions = experiments.Options
	// Report is one regenerated table or figure.
	Report = experiments.Report
	// Experiment pairs an experiment ID with its runner.
	Experiment = experiments.Definition
)

// Experiments returns every paper table/figure definition plus the
// ablations, in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID looks up one experiment ("table4", "figure9", ...).
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// Broker types, for callers deploying the components on separate
// processes the way the paper deploys them on separate VMs.
type (
	// Broker is the in-process Kafka-analogue message broker.
	Broker = broker.Broker
	// BrokerServer exposes a broker over TCP.
	BrokerServer = broker.Server
	// BrokerClient is a TCP broker transport.
	BrokerClient = broker.RemoteClient
)

// ServingDaemon is a running external serving framework instance
// (TF-Serving, TorchServe, or Ray Serve analogue).
type ServingDaemon = external.Server

// ServingDaemonConfig launches a standalone external serving daemon.
type ServingDaemonConfig struct {
	// Tool is tf-serving, torchserve, or ray-serve.
	Tool string
	// Model selects the model to serve.
	Model ModelSpec
	// Workers is the inference pool size (threads/processes/replicas).
	Workers int
	// Device is cpu or gpu.
	Device string
	// Addr is the listen address; empty picks a free localhost port.
	Addr string
	// Network injects a modelled link in front of the daemon.
	Network NetworkProfile
	// Telemetry, when set, collects server-side serving.server.* metrics
	// (modelserver exposes them on /metrics).
	Telemetry *TelemetryRegistry
}

// StartServingDaemon launches an external serving daemon, serving the
// model through the framework's native storage format.
func StartServingDaemon(cfg ServingDaemonConfig) (ServingDaemon, error) {
	m, err := cfg.Model.Build()
	if err != nil {
		return nil, err
	}
	kind := external.Kind(cfg.Tool)
	format, err := external.Format(kind)
	if err != nil {
		return nil, err
	}
	stored, err := modelfmt.Encode(format, m)
	if err != nil {
		return nil, err
	}
	dev, err := gpu.ByName(cfg.Device)
	if err != nil {
		return nil, err
	}
	return external.Start(external.Config{
		Kind:       kind,
		ModelBytes: stored,
		Workers:    cfg.Workers,
		Device:     dev,
		Addr:       cfg.Addr,
		Network:    cfg.Network,
		Metrics:    cfg.Telemetry,
	})
}

// NewBroker creates a message broker with the paper's defaults (50 MB max
// request size): the one node of a one-node cluster, which runs nothing
// in the background.
func NewBroker() *Broker { return broker.New(broker.DefaultConfig()) }

// ServeBroker exposes a broker on a TCP address ("127.0.0.1:0" picks a
// free port).
func ServeBroker(b *Broker, addr string) (*BrokerServer, error) { return broker.Serve(b, addr) }

// DialBroker connects to a broker daemon.
func DialBroker(addr string) (*BrokerClient, error) { return broker.Dial(addr) }
