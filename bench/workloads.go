package main

import (
	"fmt"
	"time"

	"crayfish/internal/batching"
	"crayfish/internal/broker"
	"crayfish/internal/core"
	"crayfish/internal/loadgen"
	"crayfish/internal/netsim"
	"crayfish/internal/telemetry"

	// Engines register themselves with sps.New from init.
	_ "crayfish/internal/sps/flink"
	_ "crayfish/internal/sps/kstreams"
	_ "crayfish/internal/sps/ray"
	_ "crayfish/internal/sps/sparkss"
)

// refSeconds is the run length every frozen size below was calibrated
// at (BENCHMARK.json run_seconds). A run of another length scales the
// drain size and the phase lengths by seconds/refSeconds and keeps the
// rates.
const refSeconds = 30

// partitions is the topic width of every workload: enough that mp 2
// engines split the input, few enough that a poll does not walk empty
// partitions for most of its time.
const partitions = 4

// drainTimeout is generous on purpose: code that is too slow fails
// loudly as unscored events instead of having its tail truncated.
const drainTimeout = 60 * time.Second

// workload is one named pipeline configuration plus the sizes frozen on
// the reference box (2 cores, seed code). Names are final: later issues
// refer to them.
type workload struct {
	name string
	why  string

	engine   string
	serving  core.ServingConfig
	model    string
	shape    []int
	codec    core.BatchCodec
	tcp      bool
	mp       int
	batching *batching.Policy

	// drainN events take the seed code about 5 s to drain, in four
	// drains of a quarter each; holdRate is ≈ 0.4 × seed drain_eps; sloMs
	// ≈ 10 × seed hold p50; ladder holds ten fixed open-loop rates from
	// 0.5 × to 1.22 × seed drain_eps, ascending.
	drainN   int
	holdRate float64
	sloMs    float64
	ladder   []float64
}

// ladderRates spaces n rates evenly over [lo, hi] × base, rounded to
// whole events/s so the frozen numbers read the same everywhere.
func ladderRates(base, lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		f := lo + (hi-lo)*float64(i)/float64(n-1)
		out[i] = float64(int(base*f + 0.5))
	}
	return out
}

var workloads = []*workload{
	{
		name:     "ffnn-inproc",
		why:      "paper default row (flink, embedded onnx, FFNN, JSON): per-record codec and engine hand-off dominate, the model is ~3 % of CPU",
		engine:   "flink",
		serving:  core.ServingConfig{Mode: core.Embedded, Tool: "onnx"},
		model:    "ffnn",
		shape:    []int{28, 28},
		codec:    core.JSONCodec{},
		mp:       1,
		drainN:   20000,
		holdRate: 1500,
		sloMs:    14,
		ladder:   ladderRates(4050, 0.50, 1.22, 10),
	},
	{
		name:     "ffnn-tcp",
		why:      "ffnn-inproc with the broker behind one shared TCP client: the JSON-framed wire path does most of the work, everything else is equal",
		engine:   "flink",
		serving:  core.ServingConfig{Mode: core.Embedded, Tool: "onnx"},
		model:    "ffnn",
		shape:    []int{28, 28},
		codec:    core.JSONCodec{},
		tcp:      true,
		mp:       1,
		drainN:   10000,
		holdRate: 900,
		sloMs:    24,
		ladder:   ladderRates(2230, 0.50, 1.22, 10),
	},
	{
		name:     "resnet-compute",
		why:      "compute-bound (kafka-streams, embedded onnx, ResNet 3x64x64, binary codec, mp 2): model and tensor work shows, codec and broker work must not",
		engine:   "kafka-streams",
		serving:  core.ServingConfig{Mode: core.Embedded, Tool: "onnx"},
		model:    "resnet",
		shape:    []int{3, 64, 64},
		codec:    core.BinaryCodec{},
		mp:       2,
		drainN:   1500,
		holdRate: 80,
		sloMs:    120,
		ladder:   ladderRates(210, 0.50, 1.22, 10),
	},
	{
		name:     "ffnn-external",
		why:      "the only path through grpcish, batching and serving/external (spark-ss, tf-serving, MaxBatch 16): linger and trigger waits set its latency",
		engine:   "spark-ss",
		serving:  core.ServingConfig{Mode: core.External, Tool: "tf-serving"},
		model:    "ffnn",
		shape:    []int{28, 28},
		codec:    core.JSONCodec{},
		mp:       2,
		batching: &batching.Policy{MaxBatch: 16},
		drainN:   20000,
		holdRate: 2000,
		sloMs:    80,
		ladder:   ladderRates(5400, 0.50, 1.22, 10),
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// config is the workload's product configuration for one run. seed
// feeds the synthetic data generator here and the Poisson schedule in
// the load policy, and nothing else.
func (w *workload) config(seed int64, load loadgen.Policy, duration time.Duration, maxEvents int) core.Config {
	var bp *batching.Policy
	if w.batching != nil {
		p := *w.batching
		bp = &p
	}
	return core.Config{
		Workload: core.Workload{
			InputShape: w.shape,
			BatchSize:  1,
			Load:       &load,
			Duration:   duration,
			MaxEvents:  maxEvents,
			Seed:       seed,
		},
		Engine:             w.engine,
		Serving:            w.serving,
		Model:              core.ModelSpec{Name: w.model, Seed: 1},
		ParallelismDefault: w.mp,
		Partitions:         partitions,
		Batching:           bp,
		Network:            netsim.Loopback,
		KeepSamples:        true,
	}
}

// openTransport starts what the workload's broker hop needs outside the
// product's runner. Untraced in-process runs need nothing (a nil
// transport lets core.Runner build its private broker); the traced run
// assembles the pipeline itself and asks for its own broker; a TCP
// workload gets a broker behind a loopback listener with the one shared
// client every component of the run uses. closeFn stops it all.
func (w *workload) openTransport(reg *telemetry.Registry, own bool) (t broker.Transport, closeFn func() error, err error) {
	if !w.tcp && !own {
		return nil, func() error { return nil }, nil
	}
	bcfg := broker.DefaultConfig()
	bcfg.Network = netsim.Loopback
	bcfg.Metrics = reg
	b := broker.New(bcfg)
	if !w.tcp {
		return b, func() error { b.Close(); return nil }, nil
	}
	srv, err := broker.Serve(b, "127.0.0.1:0")
	if err != nil {
		b.Close()
		return nil, nil, fmt.Errorf("broker listen: %w", err)
	}
	client, err := broker.Dial(srv.Addr())
	if err != nil {
		_ = srv.Close() // the dial error is the one to report
		b.Close()
		return nil, nil, fmt.Errorf("broker dial: %w", err)
	}
	return client, func() error {
		cerr := client.Close()
		serr := srv.Close()
		b.Close()
		if cerr != nil {
			return cerr
		}
		return serr
	}, nil
}
