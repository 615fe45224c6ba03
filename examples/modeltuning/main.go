// Model tuning: the latency–accuracy trade-off scenario from §2.2.2. A
// data scientist has several candidate models from the training pipeline —
// here, FFNN variants of growing width, each with a validation accuracy
// the training run reported — and must pick the most accurate one whose
// serving latency stays inside the product's SLO. Crayfish acts as the
// testing ground: each candidate is deployed into the production-shaped
// pipeline (same SPS, same serving tool, same broker) and its end-to-end
// p95 latency is measured, not guessed.
//
//	go run ./examples/modeltuning
package main

import (
	"fmt"
	"log"
	"time"

	"crayfish"
	"crayfish/internal/model"
)

// candidate pairs a trained model variant with the accuracy its training
// run reported (accuracy comes from the training pipeline; Crayfish
// contributes the latency column).
type candidate struct {
	name     string
	hidden   []int
	accuracy float64
}

func main() {
	const slo = 45 * time.Millisecond
	candidates := []candidate{
		{"ffnn-xs", []int{16}, 0.861},
		{"ffnn-s", []int{32, 32, 32}, 0.894},
		{"ffnn-m", []int{128, 128}, 0.907},
		{"ffnn-l", []int{512, 256}, 0.913},
		{"ffnn-xl", []int{1024, 1024, 512}, 0.916},
	}

	fmt.Printf("latency-accuracy sweep (Flink + ONNX, bsz=32, p95 SLO %v)\n", slo)
	fmt.Printf("%-8s  %-9s  %-10s  %-10s  %s\n", "model", "params", "accuracy", "p95", "verdict")
	best := -1
	for i, c := range candidates {
		m := model.NewFFNNSized(int64(i+1), 28*28, c.hidden, 10)
		cfg := crayfish.Config{
			Workload: crayfish.Workload{
				InputShape: []int{28, 28},
				BatchSize:  32,
				Load:       &crayfish.LoadPolicy{Process: crayfish.LoadConstant, Rate: 8},
				Duration:   3 * time.Second,
				Seed:       9,
			},
			Engine:             "flink",
			Serving:            crayfish.ServingConfig{Mode: crayfish.Embedded, Tool: "onnx"},
			Model:              crayfish.ModelSpec{Custom: m},
			ParallelismDefault: 1,
			Network:            crayfish.LAN,
		}
		res, err := crayfish.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		p95 := res.Metrics.Latency.P95
		verdict := "meets SLO"
		if p95 > slo {
			verdict = "too slow"
		} else {
			best = i
		}
		fmt.Printf("%-8s  %-9d  %-10.3f  %-10v  %s\n",
			c.name, m.ParamCount(), c.accuracy, p95.Round(time.Microsecond), verdict)
	}
	if best >= 0 {
		fmt.Printf("\npick: %s — the most accurate candidate inside the latency budget\n", candidates[best].name)
	} else {
		fmt.Println("\nno candidate meets the SLO; revisit the serving configuration or the models")
	}
}
