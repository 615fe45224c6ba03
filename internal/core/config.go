package core

import (
	"fmt"
	"time"

	"crayfish/internal/batching"
	"crayfish/internal/loadgen"
	"crayfish/internal/netsim"
	"crayfish/internal/telemetry"
)

// Workload carries the Table 1 configuration parameters.
type Workload struct {
	// InputShape is isz: the shape of each generated data point.
	InputShape []int
	// BatchSize is bsz: data points per CrayfishDataBatch (one event).
	BatchSize int
	// Load selects the arrival process (internal/loadgen): constant
	// (the paper's ir), Poisson, trace replay, phased composition (the
	// paper's periodic bursts, bd/tbb) or saturation. Nil saturates: the
	// producer emits as fast as it can, which is how
	// sustainable-throughput probes drive the SUT.
	Load *loadgen.Policy
	// Duration bounds the experiment (the paper's 15-minute timeout,
	// scaled down).
	Duration time.Duration
	// MaxEvents optionally bounds generated events (the paper's 1M
	// measurements); zero means unbounded.
	MaxEvents int
	// ProducerBatch is the Kafka-producer-style send batch: up to this
	// many pending events go to the broker in one call. Events flush
	// immediately whenever the generator would otherwise wait for the
	// next due time (linger.ms = 0), so low-rate latency measurements
	// are unaffected. Zero means 64.
	ProducerBatch int
	// Seed drives the synthetic data generator.
	Seed int64
	// DatasetPath, when set, feeds the producer from a real dataset
	// file (WriteDataset format) instead of the synthetic generator —
	// §3.1's second input option. The dataset's point length must match
	// InputShape; streams cycle through finite datasets.
	DatasetPath string
}

// PointLen returns the flattened length of one data point.
func (w *Workload) PointLen() int {
	n := 1
	for _, d := range w.InputShape {
		n *= d
	}
	return n
}

// Validate checks and defaults the workload.
func (w *Workload) Validate() error {
	if len(w.InputShape) == 0 || w.PointLen() <= 0 {
		return fmt.Errorf("core: workload needs a non-empty input shape, got %v", w.InputShape)
	}
	if w.BatchSize <= 0 {
		w.BatchSize = 1
	}
	if w.Duration <= 0 {
		w.Duration = time.Second
	}
	if w.Load != nil {
		if err := w.Load.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// LoadPolicy is the workload's arrival policy: Load, or saturation when
// none is set.
func (w *Workload) LoadPolicy() loadgen.Policy {
	if w.Load != nil {
		return *w.Load
	}
	return loadgen.Saturate()
}

// Config describes one Crayfish experiment: the workload, the system
// under test, and the measurement parameters.
type Config struct {
	Workload Workload
	// Engine names the stream processor ("flink", "kafka-streams",
	// "spark-ss", "ray").
	Engine string
	// Serving selects the serving tool.
	Serving ServingConfig
	// Model selects the pre-trained model (default: ffnn).
	Model ModelSpec
	// Parallelism is mp plus optional operator-level overrides.
	ParallelismDefault int
	SourceParallelism  int
	SinkParallelism    int
	// Partitions is the per-topic partition count (the paper uses 32).
	Partitions int
	// Batching, when set, coalesces concurrent scoring-operator calls
	// into multi-record scorer invocations under the policy's size +
	// linger triggers (with an SLO, the AIMD controller tunes the batch
	// size). Nil keeps the per-record path — the paper's baseline.
	Batching *batching.Policy
	// Network models the links between the paper's separate machines
	// (producer ↔ broker ↔ SPS ↔ serving VM). The zero profile keeps
	// everything at in-process speed; experiments use netsim.LAN to
	// reproduce the cluster environment of §4.2.
	Network netsim.Profile
	// WarmupFraction of samples is discarded (the paper drops 25%).
	WarmupFraction float64
	// KeepSamples retains per-batch samples in the result (needed for
	// burst-recovery analysis); aggregates are always computed.
	KeepSamples bool
	// Telemetry, when set, collects live per-stage metrics (producer,
	// broker, SPS operators, scorer, consumer) into the registry while
	// the run executes; the final snapshot lands in Result.Telemetry.
	// See docs/OBSERVABILITY.md for the metric contract. Nil keeps
	// instrumentation disabled at near-zero cost.
	Telemetry *telemetry.Registry `json:"-"`

	// closedStreams, when positive, caps the outstanding (issued but
	// not yet completed) events: the runner gates the producer on
	// consumer completions. Set by Runner.RunScenario for the
	// single-/multi-stream scenarios.
	closedStreams int
}

// ServingMode distinguishes embedded from external serving.
type ServingMode string

// Serving modes (§2.1).
const (
	Embedded ServingMode = "embedded"
	External ServingMode = "external"
)

// ServingConfig selects and configures a serving tool.
type ServingConfig struct {
	// Mode is embedded or external.
	Mode ServingMode
	// Tool names the serving tool: onnx, savedmodel, dl4j (embedded);
	// tf-serving, torchserve, ray-serve (external).
	Tool string
	// Device is "cpu" (default) or "gpu"; a "+int8" suffix (or the
	// Int8 flag) selects the quantized execution profile.
	Device string
	// Int8 opts the embedded runtime into the quantized int8 inference
	// path (docs/QUANTIZATION.md): the model is calibrated and compiled
	// to an int8 plan at load time. Embedded onnx/dl4j only — the
	// savedmodel runtime executes its graph unfused and external tools
	// manage their own precision.
	Int8 bool
	// Workers overrides the external server's worker pool; zero means
	// the experiment's parallelism (fair resource allocation, §3.5,
	// gives external servers their own pool).
	Workers int
	// Addr points at an already-running external server; empty means
	// the runner launches one in-process.
	Addr string
}

// Validate checks and defaults the configuration.
func (c *Config) Validate() error {
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Engine == "" {
		return fmt.Errorf("core: config needs an engine")
	}
	if c.Serving.Mode != Embedded && c.Serving.Mode != External {
		return fmt.Errorf("core: serving mode must be embedded or external, got %q", c.Serving.Mode)
	}
	if c.Serving.Tool == "" {
		return fmt.Errorf("core: config needs a serving tool")
	}
	if c.ParallelismDefault <= 0 {
		c.ParallelismDefault = 1
	}
	if c.Partitions <= 0 {
		c.Partitions = 32
	}
	if c.WarmupFraction < 0 || c.WarmupFraction >= 1 {
		return fmt.Errorf("core: warmup fraction %v out of [0,1)", c.WarmupFraction)
	}
	if c.WarmupFraction == 0 {
		c.WarmupFraction = 0.25
	}
	return nil
}
