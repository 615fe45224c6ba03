package core

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/faults"
	"crayfish/internal/grpcish"
	"crayfish/internal/loadgen"
	"crayfish/internal/model"
	"crayfish/internal/netsim"
	"crayfish/internal/serving"

	// Register the engines under test.
	_ "crayfish/internal/sps/flink"
	_ "crayfish/internal/sps/kstreams"
	_ "crayfish/internal/sps/ray"
	_ "crayfish/internal/sps/sparkss"
)

// constantLoad spells the paper's open-loop ir as a Workload.Load.
func constantLoad(rate float64) *loadgen.Policy {
	p := loadgen.Constant(rate)
	return &p
}

// quickConfig is a small, fast experiment configuration.
func quickConfig(engine string, serving ServingConfig) Config {
	return Config{
		Workload: Workload{
			InputShape: []int{28, 28},
			BatchSize:  1,
			Load:       constantLoad(400),
			Duration:   250 * time.Millisecond,
			Seed:       1,
		},
		Engine:             engine,
		Serving:            serving,
		Model:              ModelSpec{Name: "ffnn", Seed: 1},
		ParallelismDefault: 1,
		Partitions:         4,
	}
}

func TestRunEmbeddedAllEngines(t *testing.T) {
	for _, engine := range []string{"flink", "kafka-streams", "spark-ss", "ray"} {
		t.Run(engine, func(t *testing.T) {
			r := &Runner{}
			res, err := r.Run(quickConfig(engine, ServingConfig{Mode: Embedded, Tool: "onnx"}))
			if err != nil {
				t.Fatal(err)
			}
			if res.EngineErr != nil {
				t.Fatalf("engine error: %v", res.EngineErr)
			}
			if res.Metrics.Consumed < res.Metrics.Produced*8/10 {
				t.Fatalf("consumed %d of %d produced", res.Metrics.Consumed, res.Metrics.Produced)
			}
			if res.Metrics.Latency.Mean <= 0 {
				t.Fatalf("latency %v", res.Metrics.Latency.Mean)
			}
			if res.Duplicates != 0 {
				t.Fatalf("%d duplicate batches", res.Duplicates)
			}
		})
	}
}

func TestRunExternalServing(t *testing.T) {
	r := &Runner{}
	res, err := r.Run(quickConfig("flink", ServingConfig{Mode: External, Tool: "tf-serving"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.EngineErr != nil {
		t.Fatalf("engine error: %v", res.EngineErr)
	}
	if res.Metrics.Consumed == 0 {
		t.Fatal("nothing consumed")
	}
}

func TestRunKeepSamples(t *testing.T) {
	cfg := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	cfg.KeepSamples = true
	r := &Runner{}
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != res.Metrics.Consumed {
		t.Fatalf("kept %d samples, consumed %d", len(res.Samples), res.Metrics.Consumed)
	}
	// End-to-end timestamp sanity: end >= start for every sample.
	for _, s := range res.Samples {
		if s.End.Before(s.Start) {
			t.Fatalf("sample %d ends before it starts", s.ID)
		}
	}
}

func TestRunValidation(t *testing.T) {
	r := &Runner{}
	bad := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	bad.Engine = ""
	if _, err := r.Run(bad); err == nil {
		t.Fatal("empty engine accepted")
	}
	bad = quickConfig("storm", ServingConfig{Mode: Embedded, Tool: "onnx"})
	if _, err := r.Run(bad); err == nil {
		t.Fatal("unknown engine accepted")
	}
	bad = quickConfig("flink", ServingConfig{Mode: "sideways", Tool: "onnx"})
	if _, err := r.Run(bad); err == nil {
		t.Fatal("bad mode accepted")
	}
	bad = quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "tensorrt"})
	if _, err := r.Run(bad); err == nil {
		t.Fatal("unknown tool accepted")
	}
	bad = quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	bad.Workload.InputShape = []int{3}
	if _, err := r.Run(bad); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	bad = quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	bad.Model = ModelSpec{Name: "alexnet"}
	if _, err := r.Run(bad); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestRunOnRemoteBroker(t *testing.T) {
	// The same experiment must run against a TCP broker daemon.
	b := broker.New(broker.DefaultConfig())
	srv, err := broker.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := broker.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	r := &Runner{Transport: rc}
	cfg := quickConfig("kafka-streams", ServingConfig{Mode: Embedded, Tool: "onnx"})
	cfg.Workload.Load = constantLoad(200)
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Consumed == 0 {
		t.Fatal("nothing consumed over TCP broker")
	}
	// Topics were cleaned up, so a rerun succeeds.
	if _, err := r.Run(cfg); err != nil {
		t.Fatalf("rerun on remote broker: %v", err)
	}
}

// TestRunClusterSizes: every ordinary run is a cluster run, so one node
// or three is a value in Config. Both sizes account for every event the
// producer sent, with no duplicate and nothing lost.
func TestRunClusterSizes(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			cfg := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
			cfg.Cluster.Nodes = nodes
			res, err := (&Runner{DrainTimeout: 10 * time.Second}).Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.EngineErr != nil {
				t.Fatalf("engine error: %v", res.EngineErr)
			}
			if m := res.Metrics; m.Produced == 0 || m.Consumed != m.Produced || res.Duplicates != 0 {
				t.Fatalf("produced %d, consumed %d, %d duplicates; want every event once", m.Produced, m.Consumed, res.Duplicates)
			}
		})
	}
}

// TestRunTransportOverrideIsOneNode: a Transport override stands for the
// runner's one node, so a run that asks for more nodes or for torn
// frames, and any fault run, is refused rather than run on a broker that
// cannot honour it.
func TestRunTransportOverrideIsOneNode(t *testing.T) {
	b := broker.New(broker.DefaultConfig())
	defer b.Close()
	r := &Runner{Transport: b}
	for name, spec := range map[string]ClusterSpec{
		"three nodes": {Nodes: 3},
		"torn frames": {TornFrameEvery: time.Millisecond},
	} {
		cfg := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
		cfg.Cluster = spec
		if _, err := r.Run(cfg); err == nil {
			t.Errorf("%s: ran on the Transport override", name)
		}
	}
	if _, err := r.RunRecovery(quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"}), faults.Plan{}); err == nil {
		t.Error("fault run ran on the Transport override")
	}
}

func TestRunAveraged(t *testing.T) {
	r := &Runner{}
	results, err := r.RunAveraged(quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if MeanThroughput(results) <= 0 {
		t.Fatal("mean throughput not positive")
	}
	if MeanThroughput(nil) != 0 {
		t.Fatal("empty aggregates not zero")
	}
}

func TestRunStandalone(t *testing.T) {
	cfg := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	cfg.KeepSamples = true
	res, err := RunStandalone(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Consumed == 0 {
		t.Fatal("standalone consumed nothing")
	}
	if res.Metrics.Latency.Mean <= 0 {
		t.Fatal("standalone latency not positive")
	}
}

// arrivalsWithin counts the policy's scheduled arrivals in the first d.
func arrivalsWithin(t *testing.T, p loadgen.Policy, d time.Duration) int {
	t.Helper()
	s, err := p.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		off, _, ok := s.Next()
		if !ok || off > d {
			return n
		}
		n++
	}
}

// recordingTFServing is a stand-in TF-Serving daemon for
// ServingConfig.Addr: it speaks the two RPCs the client uses and keeps
// every input it is asked to score.
type recordingTFServing struct {
	*grpcish.Server
	mu     sync.Mutex
	inputs []float32
}

func startRecordingTFServing(t *testing.T, inputLen int) *recordingTFServing {
	t.Helper()
	d := &recordingTFServing{Server: grpcish.NewServer()}
	d.Handle("tensorflow.serving.PredictionService/GetModelMetadata", func([]byte) ([]byte, error) {
		return []byte(fmt.Sprintf(`{"input_len":%d,"output_size":1}`, inputLen)), nil
	})
	d.Handle("tensorflow.serving.PredictionService/Predict", func(req []byte) ([]byte, error) {
		inputs, n, err := serving.DecodeBatch(req)
		if err != nil {
			return nil, err
		}
		d.mu.Lock()
		d.inputs = append(d.inputs, inputs...)
		d.mu.Unlock()
		return serving.EncodeBatch(make([]float32, n), n), nil
	})
	if err := d.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// TestRunStandaloneHonoursConfig: the broker-less pipeline is driven by
// the same workload and network description as the broker pipeline — it
// paces on Workload.Load, feeds Workload.DatasetPath, and an external
// tool pays Config.Network on its serving link.
func TestRunStandaloneHonoursConfig(t *testing.T) {
	poisson := loadgen.Poisson(200, 3)
	phased := loadgen.Phased(0,
		loadgen.Phase{Duration: 50 * time.Millisecond, Rate: 400},
		loadgen.Phase{Duration: 50 * time.Millisecond, Rate: 40},
	)
	paced := func(p loadgen.Policy) func(*testing.T, *Config) func(*testing.T, *Result) {
		return func(t *testing.T, cfg *Config) func(*testing.T, *Result) {
			cfg.Workload.Load = &p
			cfg.Workload.Duration = 300 * time.Millisecond
			scheduled := arrivalsWithin(t, p, cfg.Workload.Duration)
			return func(t *testing.T, res *Result) {
				// Never ahead of the schedule (the one arrival the generator
				// is waiting on when the deadline passes still goes out); a
				// loaded machine may trail it.
				if got := res.Metrics.Produced; got > scheduled+1 || got < scheduled/2 {
					t.Fatalf("produced %d events, schedule holds %d in %v", got, scheduled, cfg.Workload.Duration)
				}
			}
		}
	}
	cases := []struct {
		name string
		// setup edits the config and returns the check on its result.
		setup func(*testing.T, *Config) func(*testing.T, *Result)
	}{
		{"poisson load is paced", paced(poisson)},
		{"phased load is paced", paced(phased)},
		{"dataset points reach the scorer", func(t *testing.T, cfg *Config) func(*testing.T, *Result) {
			points := []float32{0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5}
			path := filepath.Join(t.TempDir(), "ds.crf")
			if err := writeDataset(path, points, 4); err != nil {
				t.Fatal(err)
			}
			daemon := startRecordingTFServing(t, 4)
			cfg.Workload = Workload{InputShape: []int{4}, BatchSize: 2, MaxEvents: 3, Duration: time.Second, DatasetPath: path}
			cfg.Model = ModelSpec{Custom: model.NewFFNNSized(1, 4, []int{3}, 1)}
			cfg.Serving = ServingConfig{Mode: External, Tool: "tf-serving", Addr: daemon.Addr()}
			return func(t *testing.T, res *Result) {
				daemon.mu.Lock()
				defer daemon.mu.Unlock()
				// Three events of two points each: the dataset, cycled.
				want := slices.Concat(points, points, points)
				if !slices.Equal(daemon.inputs, want) {
					t.Fatalf("scorer saw %v, want the dataset's points %v", daemon.inputs, want)
				}
			}
		}},
		{"external tool pays the serving hop", func(t *testing.T, cfg *Config) func(*testing.T, *Result) {
			cfg.Serving = ServingConfig{Mode: External, Tool: "tf-serving"}
			cfg.Network = netsim.LAN
			cfg.Workload.Load = constantLoad(100)
			return func(t *testing.T, res *Result) {
				// Request and response each cross the modelled link.
				if hop := 2 * netsim.LAN.Latency; res.Metrics.Latency.Min < hop {
					t.Fatalf("fastest event took %v, below the %v the serving link costs", res.Metrics.Latency.Min, hop)
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
			check := c.setup(t, &cfg)
			res, err := RunStandalone(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res)
		})
	}
}

func TestStandaloneLatencyBelowBrokerPipeline(t *testing.T) {
	// Figure 13's shape: removing the broker hops lowers end-to-end
	// latency.
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	cfg := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	cfg.Workload.Load = constantLoad(100)
	cfg.Workload.Duration = 400 * time.Millisecond
	viaBroker, err := (&Runner{}).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	standalone, err := RunStandalone(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if standalone.Metrics.Latency.Mean >= viaBroker.Metrics.Latency.Mean {
		t.Logf("standalone %v not below broker %v (acceptable on loaded machines, but unusual)",
			standalone.Metrics.Latency.Mean, viaBroker.Metrics.Latency.Mean)
	}
}
