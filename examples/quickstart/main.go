// Quickstart: run one streaming-inference experiment end to end — the
// FFNN image classifier embedded (ONNX runtime) in the Flink-analogue
// stream processor, fed at a constant rate through the message broker —
// and print throughput plus end-to-end latency percentiles.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"crayfish"
)

func main() {
	cfg := crayfish.Config{
		Workload: crayfish.Workload{
			InputShape: []int{28, 28}, // isz: Fashion-MNIST images
			BatchSize:  1,             // bsz: one data point per event
			// ir: constant 500 events/s
			Load:     &crayfish.LoadPolicy{Process: crayfish.LoadConstant, Rate: 500},
			Duration: 3 * time.Second,
			Seed:     1,
		},
		Engine:             "flink",
		Serving:            crayfish.ServingConfig{Mode: crayfish.Embedded, Tool: "onnx"},
		Model:              crayfish.ModelSpec{Name: "ffnn", Seed: 1},
		ParallelismDefault: 1,
		Network:            crayfish.LAN, // model the paper's inter-VM links
	}

	res, err := crayfish.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	m := res.Metrics
	fmt.Println("Crayfish quickstart — Flink + embedded ONNX + FFNN")
	fmt.Printf("  produced   %d events, consumed %d (%d warm-up discarded)\n", m.Produced, m.Consumed, m.Warmup)
	fmt.Printf("  throughput %.1f events/s\n", m.Throughput)
	fmt.Printf("  latency    mean %v  p50 %v  p95 %v  p99 %v\n",
		m.Latency.Mean.Round(time.Microsecond),
		m.Latency.P50.Round(time.Microsecond),
		m.Latency.P95.Round(time.Microsecond),
		m.Latency.P99.Round(time.Microsecond))

	// The same experiment with external serving: one flag flip, as in
	// the paper's embedded-vs-external design space (§2.1). The rate
	// drops below the external arrangement's sustainable throughput so
	// the latency readings stay queue-free.
	cfg.Serving = crayfish.ServingConfig{Mode: crayfish.External, Tool: "tf-serving"}
	cfg.Workload.Load = &crayfish.LoadPolicy{Process: crayfish.LoadConstant, Rate: 150}
	res, err = crayfish.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same pipeline, external TF-Serving:")
	fmt.Printf("  throughput %.1f events/s, mean latency %v\n",
		res.Metrics.Throughput, res.Metrics.Latency.Mean.Round(time.Microsecond))
}
