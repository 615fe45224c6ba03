// Vision pipeline: image classification over a stream with external
// serving, comparing CPU against GPU inference — the paper's §5.2
// scenario. A ResNet scores image batches behind the TF-Serving analogue;
// the example launches the serving daemon explicitly (the way operations
// teams run it on a separate machine), points the stream processor at its
// address, and reports the latency improvement from the accelerator.
//
//	go run ./examples/vision
package main

import (
	"fmt"
	"log"
	"time"

	"crayfish"
)

func main() {
	fmt.Println("vision pipeline — Spark SS + external TF-Serving + ResNet (bsz=8)")
	var cpuMean time.Duration
	for _, device := range []string{"cpu", "gpu"} {
		// Launch the serving daemon standalone, as a dedicated
		// inference service (§2.1's external arrangement).
		daemon, err := crayfish.StartServingDaemon(crayfish.ServingDaemonConfig{
			Tool:    "tf-serving",
			Model:   crayfish.ModelSpec{Name: "resnet", Seed: 1},
			Workers: 2,
			Device:  device,
			Network: crayfish.LAN,
		})
		if err != nil {
			log.Fatal(err)
		}

		cfg := crayfish.Config{
			Workload: crayfish.Workload{
				InputShape: []int{3, 64, 64},
				BatchSize:  8,
				// closed loop: latency dominated by inference
				Load:     &crayfish.LoadPolicy{Process: crayfish.LoadConstant, Rate: 3},
				Duration: 4 * time.Second,
				Seed:     1,
			},
			Engine: "spark-ss",
			Serving: crayfish.ServingConfig{
				Mode: crayfish.External,
				Tool: "tf-serving",
				Addr: daemon.Addr(), // reuse the running daemon
			},
			Model:              crayfish.ModelSpec{Name: "resnet", Seed: 1},
			ParallelismDefault: 1,
			Network:            crayfish.LAN,
		}
		res, err := crayfish.Run(cfg)
		if cerr := daemon.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		mean := res.Metrics.Latency.Mean
		fmt.Printf("  %-3s  mean %v  p95 %v  (%d batches scored)\n",
			device, mean.Round(time.Millisecond),
			res.Metrics.Latency.P95.Round(time.Millisecond), res.Metrics.Consumed)
		if device == "cpu" {
			cpuMean = mean
		} else if cpuMean > 0 {
			gain := 100 * (float64(cpuMean) - float64(mean)) / float64(cpuMean)
			fmt.Printf("  GPU acceleration: %.1f%% lower end-to-end latency\n", gain)
		}
	}
}
