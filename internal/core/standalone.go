package core

import (
	"sync"
	"time"

	"crayfish/internal/loadgen"
)

// RunStandalone executes the Figure 13 baseline: a self-contained
// pipeline that generates data, scores it, and records output timestamps
// in-process, with no message broker between components. Its records
// come from the input producer's sample pool and the same batch
// serialisation is applied at the pipeline boundary, so the comparison
// against the Kafka-based pipeline isolates exactly the broker hops.
func RunStandalone(cfg Config) (*Result, error) {
	scorer, cleanup, err := prepare(&cfg, nil)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	codec := BatchCodec(JSONCodec{})
	transform := MakeTransform(codec, scorer)
	ds, err := loadDataset(&cfg.Workload)
	if err != nil {
		return nil, err
	}
	pool := newSamplePool(cfg.Workload, ds, codec)
	sched, err := cfg.Workload.loadPolicy().Schedule()
	if err != nil {
		return nil, err
	}
	pacer := loadgen.NewPacer(sched, loadgen.Clock{})

	pipe := make(chan []byte, 64)

	var mu sync.Mutex
	var samples []Sample
	var workers sync.WaitGroup
	for w := 0; w < cfg.ParallelismDefault; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for value := range pipe {
				scored, err := transform(value)
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

	runStart := pacer.Start()
	deadline := runStart.Add(cfg.Workload.Duration)
	produced := 0
	for time.Now().Before(deadline) {
		if cfg.Workload.MaxEvents > 0 && produced >= cfg.Workload.MaxEvents {
			break
		}
		wait, _, _, ok := pacer.Tick()
		if !ok {
			// Trace replay exhausted its arrivals.
			break
		}
		if wait > 0 {
			pacer.Sleep(wait, nil)
		}
		value, _, err := pool.record(int64(produced))
		if err != nil {
			close(pipe)
			workers.Wait()
			return nil, err
		}
		pipe <- value
		produced++
	}
	close(pipe)
	workers.Wait()

	return newResult(cfg, samples, produced, runStart)
}
