package crayfish_test

import (
	"path/filepath"
	"testing"
	"time"

	"crayfish"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := crayfish.Config{
		Workload: crayfish.Workload{
			InputShape: []int{28, 28},
			BatchSize:  1,
			Load:       &crayfish.LoadPolicy{Process: crayfish.LoadConstant, Rate: 300},
			Duration:   200 * time.Millisecond,
		},
		Engine:     "flink",
		Serving:    crayfish.ServingConfig{Mode: crayfish.Embedded, Tool: "onnx"},
		Model:      crayfish.ModelSpec{Name: "ffnn"},
		Partitions: 4,
	}
	res, err := crayfish.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Consumed == 0 || res.Metrics.Latency.Mean <= 0 {
		t.Fatalf("metrics %+v", res.Metrics)
	}
}

func TestPublicAPIStandalone(t *testing.T) {
	cfg := crayfish.Config{
		Workload: crayfish.Workload{
			InputShape: []int{28, 28},
			Load:       &crayfish.LoadPolicy{Process: crayfish.LoadConstant, Rate: 300},
			Duration:   150 * time.Millisecond,
		},
		Engine:  "flink",
		Serving: crayfish.ServingConfig{Mode: crayfish.Embedded, Tool: "onnx"},
	}
	res, err := crayfish.RunStandalone(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Consumed == 0 {
		t.Fatal("standalone consumed nothing")
	}
}

func TestEnginesAndToolsListed(t *testing.T) {
	engines := crayfish.Engines()
	want := map[string]bool{"flink": true, "kafka-streams": true, "ray": true, "spark-ss": true}
	for _, e := range engines {
		delete(want, e)
	}
	if len(want) != 0 {
		t.Fatalf("missing engines %v (got %v)", want, engines)
	}
	if len(crayfish.EmbeddedTools()) != 3 || len(crayfish.ExternalTools()) != 3 {
		t.Fatal("tool lists wrong")
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	if len(crayfish.Experiments()) < 12 {
		t.Fatalf("only %d experiments", len(crayfish.Experiments()))
	}
	if _, err := crayfish.ExperimentByID("table4"); err != nil {
		t.Fatal(err)
	}
	if _, err := crayfish.ExperimentByID("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestBrokerHelpers(t *testing.T) {
	b := crayfish.NewBroker()
	srv, err := crayfish.ServeBroker(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := crayfish.DialBroker(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	n, err := c.Partitions("t")
	if err != nil || n != 2 {
		t.Fatalf("partitions %d %v", n, err)
	}
}

func TestLANProfileExposed(t *testing.T) {
	if !crayfish.LAN.Enabled() {
		t.Fatal("LAN profile disabled")
	}
}

func TestSaveAndLoadStoredModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ffnn.onnx")
	if err := crayfish.SaveModel(crayfish.ModelSpec{Name: "ffnn", Seed: 3}, "onnx", path); err != nil {
		t.Fatal(err)
	}
	spec, err := crayfish.LoadStoredModel(path)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded model serves through a daemon end to end.
	daemon, err := crayfish.StartServingDaemon(crayfish.ServingDaemonConfig{
		Tool: "torchserve", Model: spec, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	daemon.Close()

	if _, err := crayfish.LoadStoredModel(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := crayfish.SaveModel(crayfish.ModelSpec{Name: "bogus"}, "onnx", path); err == nil {
		t.Fatal("unknown model accepted")
	}
	if err := crayfish.SaveModel(crayfish.ModelSpec{Name: "ffnn"}, "pickle", path); err == nil {
		t.Fatal("unknown format accepted")
	}
}
