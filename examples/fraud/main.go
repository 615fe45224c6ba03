// Fraud detection: a domain scenario from the paper's motivation — IoT /
// business-analytics pipelines scoring transaction streams in real time
// (§1, §2.2.2). A compact fraud classifier (64 transaction features → 2
// classes) runs embedded in the Kafka-Streams analogue, the workload
// alternates between quiet traffic and card-testing attack bursts above
// the sustainable rate, the example measures how long the pipeline needs
// to recover after each burst (the paper's Figure 8 methodology), and a
// tumbling event-time window aggregates the scored stream into a
// per-second suspected-fraud rate — the windowing capability §1 counts
// among stream processors' strengths.
//
//	go run ./examples/fraud
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"sync"
	"time"

	"crayfish"
)

func main() {
	// A custom pre-trained model: 64 transaction features, two hidden
	// layers, fraud/legit output. Any model built in code (or loaded
	// from a stored format) plugs in the same way.
	fraudModel := crayfish.NewFFNNSized(7, 64, []int{48, 24}, 2)

	baseCfg := crayfish.Config{
		Workload: crayfish.Workload{
			InputShape: []int{64},
			BatchSize:  4, // a micro-batch of transactions per event
			Seed:       7,
		},
		Engine:             "kafka-streams",
		Serving:            crayfish.ServingConfig{Mode: crayfish.Embedded, Tool: "onnx"},
		Model:              crayfish.ModelSpec{Custom: fraudModel},
		ParallelismDefault: 2,
		Network:            crayfish.LAN,
	}

	// Step 1: probe the sustainable throughput with an open-loop run.
	probe := baseCfg
	probe.Workload.Load = &crayfish.LoadPolicy{Process: crayfish.LoadConstant, Rate: 50_000}
	probe.Workload.Duration = 2 * time.Second
	res, err := crayfish.Run(probe)
	if err != nil {
		log.Fatal(err)
	}
	st := res.Metrics.Throughput
	fmt.Printf("fraud pipeline sustainable throughput: %.0f events/s (%.0f transactions/s)\n",
		st, st*float64(probe.Workload.BatchSize))

	// Step 2: attack simulation — bursts at 125% of the sustainable
	// rate, quiet periods at 70%, three cycles. The run uses a shared
	// broker so a monitoring consumer can window the scored stream
	// while the pipeline runs.
	const (
		burstDuration     = 1500 * time.Millisecond
		timeBetweenBursts = 6 * time.Second
	)
	attack := baseCfg
	attack.Workload.Load = &crayfish.LoadPolicy{
		Process: crayfish.LoadPhased,
		Phases: []crayfish.LoadPhase{
			{Duration: burstDuration, Rate: st * 1.25},
			{Duration: timeBetweenBursts - burstDuration, Rate: st * 0.70},
		},
	}
	attack.Workload.Duration = 18 * time.Second
	attack.KeepSamples = true

	b := crayfish.NewBroker()
	monitorStop := make(chan struct{})
	var monitor sync.WaitGroup
	monitor.Add(1)
	go func() {
		defer monitor.Done()
		windowFraudRate(b, monitorStop)
	}()
	runner := &crayfish.Runner{Transport: b}
	res, err = runner.Run(attack)
	close(monitorStop)
	monitor.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attack run: %d events scored, p99 latency %v\n",
		res.Metrics.Consumed, res.Metrics.Latency.P99.Round(time.Millisecond))

	// Step 4: recovery analysis per burst (§5.1.4's metric).
	for burst := 1; burst < 3; burst++ {
		start := time.Duration(burst) * timeBetweenBursts
		end := start + burstDuration
		rec, err := crayfish.RecoveryTime(res.Samples, res.RunStart, start, end,
			burstDuration/10, 2)
		if err != nil {
			fmt.Printf("burst %d: %v\n", burst, err)
			continue
		}
		fmt.Printf("burst %d: latency re-stabilised %v after the burst ended\n",
			burst, rec.Round(time.Millisecond))
	}
}

// windowFraudRate consumes the scored output topic while the pipeline
// runs and aggregates it into one-second tumbling event-time windows of
// (suspected-fraud transactions, total transactions). Watermarks advance
// with the broker's append time.
func windowFraudRate(b *crayfish.Broker, stop <-chan struct{}) {
	type frauds struct{ fraud, total int }
	agg, err := NewTumbling(time.Second, 200*time.Millisecond,
		func() frauds { return frauds{} },
		func(acc frauds, batch *crayfish.DataBatch) frauds {
			per := len(batch.Predictions) / batch.Count
			for i := 0; i < batch.Count; i++ {
				row := batch.Predictions[i*per : (i+1)*per]
				if len(row) == 2 && row[1] > row[0] { // class 1 = fraud
					acc.fraud++
				}
				acc.total++
			}
			return acc
		})
	if err != nil {
		log.Fatal(err)
	}

	report := func(results []Result[frauds]) {
		for _, r := range results {
			rate := 0.0
			if r.Value.total > 0 {
				rate = 100 * float64(r.Value.fraud) / float64(r.Value.total)
			}
			fmt.Printf("  window %s: %5d transactions, %.1f%% flagged\n",
				r.Start.Format("15:04:05"), r.Value.total, rate)
		}
	}

	fmt.Println("live fraud-rate monitoring (1s tumbling windows):")
	offsets := map[int]int64{}
	for {
		select {
		case <-stop:
			report(agg.Flush())
			return
		default:
		}
		parts, err := b.Partitions(crayfishOutTopic)
		if err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		progressed := false
		var latest time.Time
		for p := 0; p < parts; p++ {
			recs, err := b.Fetch(crayfishOutTopic, p, offsets[p], 128)
			if err != nil {
				continue
			}
			for _, rec := range recs {
				offsets[p] = rec.Offset + 1
				var batch crayfish.DataBatch
				if json.Unmarshal(rec.Value, &batch) != nil || batch.Count == 0 {
					continue
				}
				agg.Add(batch.Created(), &batch)
				if rec.AppendTime.After(latest) {
					latest = rec.AppendTime
				}
				progressed = true
			}
		}
		if progressed {
			report(agg.Watermark(latest.Add(-100 * time.Millisecond)))
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// crayfishOutTopic is the runner's output topic name.
const crayfishOutTopic = "crayfish-out"
