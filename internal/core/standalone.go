package core

import (
	"fmt"
	"sync"
	"time"

	"crayfish/internal/serving"
)

// RunStandalone executes the Figure 13 baseline: a self-contained
// pipeline that generates data, scores it, and records output timestamps
// in-process, with no message broker between components. The same batch
// serialisation is applied at the pipeline boundary so the comparison
// against the Kafka-based pipeline isolates exactly the broker hops.
func RunStandalone(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	codec := BatchCodec(JSONCodec{})
	m, err := cfg.Model.Build()
	if err != nil {
		return nil, err
	}
	if cfg.Workload.PointLen() != m.InputLen() {
		return nil, fmt.Errorf("core: workload shape %v does not match model input %v", cfg.Workload.InputShape, m.InputShape)
	}
	scorer, cleanup, err := BuildScorer(cfg.Serving, m, cfg.ParallelismDefault)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	transform := MakeTransform(codec, serving.Instrument(scorer, cfg.Telemetry))

	type item struct{ value []byte }
	pipe := make(chan item, 64)

	var mu sync.Mutex
	var samples []Sample
	var workers sync.WaitGroup
	for w := 0; w < cfg.ParallelismDefault; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for it := range pipe {
				scored, err := transform(it.value)
				if err != nil {
					continue
				}
				end := time.Now()
				id, createdNanos, err := stamp(codec, scored)
				if err != nil {
					continue
				}
				start := time.Unix(0, createdNanos)
				mu.Lock()
				samples = append(samples, Sample{
					ID:      id,
					Start:   start,
					End:     end,
					Latency: end.Sub(start),
				})
				mu.Unlock()
			}
		}()
	}

	gen := newDataGenerator(cfg.Workload)
	runStart := time.Now()
	deadline := runStart.Add(cfg.Workload.Duration)
	produced := 0
	var id int64
	for time.Now().Before(deadline) {
		if cfg.Workload.MaxEvents > 0 && produced >= cfg.Workload.MaxEvents {
			break
		}
		if rate := cfg.Workload.InputRate; rate > 0 {
			due := runStart.Add(time.Duration(float64(id) * float64(time.Second) / rate))
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
		}
		batch := gen.next(id)
		value, err := codec.Marshal(batch)
		if err != nil {
			close(pipe)
			workers.Wait()
			return nil, err
		}
		pipe <- item{value: value}
		produced++
		id++
	}
	close(pipe)
	workers.Wait()

	mu.Lock()
	collected := append([]Sample(nil), samples...)
	mu.Unlock()
	metrics, err := Analyze(collected, produced, cfg.WarmupFraction)
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg, Metrics: metrics, RunStart: runStart}
	if cfg.KeepSamples {
		res.Samples = collected
	}
	if cfg.Telemetry != nil {
		res.Telemetry = cfg.Telemetry.Snapshot()
	}
	return res, nil
}
