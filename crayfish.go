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
	"crayfish/internal/gpu"
	"crayfish/internal/loadgen"
	"crayfish/internal/model"
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
// selects the arrival process driving the producer (Workload.Load).
type (
	// LoadPolicy describes a deterministic arrival process: constant,
	// Poisson, trace replay, phased composition, or saturation. Equal
	// policies (same seed) generate byte-identical schedules.
	LoadPolicy = loadgen.Policy
	// LoadPhase is one segment of a phased (diurnal/burst) composition.
	LoadPhase = loadgen.Phase
)

// Arrival processes for Workload.Load.
const (
	LoadConstant = loadgen.ProcessConstant
	LoadPhased   = loadgen.ProcessPhased
)

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

// NewFFNNSized builds a feed-forward classifier for ModelSpec.Custom.
func NewFFNNSized(seed int64, in int, hidden []int, classes int) *model.Model {
	return model.NewFFNNSized(seed, in, hidden, classes)
}

// RecoveryTime measures how long after a burst a KeepSamples run's
// latency returns to steady state (§5.1.4).
func RecoveryTime(samples []Sample, runStart time.Time, burstStart, burstEnd, bin time.Duration, tolerance float64) (time.Duration, error) {
	return core.RecoveryTime(samples, runStart, burstStart, burstEnd, bin, tolerance)
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

// Experiment types for regenerating the paper's tables and figures.
type (
	// ExperimentOptions scales and instruments a paper experiment.
	ExperimentOptions = experiments.Options
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

// DialBroker connects to a broker daemon.
func DialBroker(addr string) (*BrokerClient, error) { return broker.Dial(addr) }
