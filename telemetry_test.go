package crayfish_test

import (
	"testing"
	"time"

	"crayfish"
)

// TestRunWithoutTelemetry keeps the disabled path honest: no registry, no
// snapshot, and the run still works.
func TestRunWithoutTelemetry(t *testing.T) {
	cfg := crayfish.Config{
		Workload: crayfish.Workload{
			InputShape: []int{28, 28},
			Load:       &crayfish.LoadPolicy{Process: crayfish.LoadConstant, Rate: 300},
			Duration:   100 * time.Millisecond,
		},
		Engine:     "kafka-streams",
		Serving:    crayfish.ServingConfig{Mode: crayfish.Embedded, Tool: "onnx"},
		Model:      crayfish.ModelSpec{Name: "ffnn"},
		Partitions: 2,
	}
	res, err := crayfish.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil {
		t.Fatal("telemetry snapshot present without a registry")
	}
}

// TestStandaloneTelemetry checks the broker-less baseline reports scorer
// metrics too (its pipeline has no broker, SPS, or consumer stages).
func TestStandaloneTelemetry(t *testing.T) {
	reg := crayfish.NewTelemetry()
	cfg := crayfish.Config{
		Workload: crayfish.Workload{
			InputShape: []int{28, 28},
			Load:       &crayfish.LoadPolicy{Process: crayfish.LoadConstant, Rate: 300},
			Duration:   100 * time.Millisecond,
		},
		Engine:    "flink",
		Serving:   crayfish.ServingConfig{Mode: crayfish.Embedded, Tool: "onnx"},
		Telemetry: reg,
	}
	res, err := crayfish.RunStandalone(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil || res.Telemetry.Counters["serving.score.calls"] <= 0 {
		t.Fatalf("standalone telemetry missing scorer activity: %+v", res.Telemetry)
	}
}
