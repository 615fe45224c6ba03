// Package sparkss implements the Spark Structured Streaming analogue: a
// micro-batch engine (§3.4.1). A driver loop fires on a trigger interval,
// collects every record available on the input topic into a micro-batch,
// splits the batch into chunks executed by a pool of executor cores, waits
// for the stage barrier, appends the results to the sink in one batched
// write, and commits — trading latency (the micro-batch floor Figure 10
// shows) for throughput (the batching that saturates external servers in
// Figure 11).
package sparkss

import (
	"fmt"
	"sync"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/sps"
	"crayfish/internal/telemetry"
)

func init() {
	sps.Register("spark-ss", func() sps.Processor { return newEngine() })
}

// engine is the Spark-Structured-Streaming-analogue processor.
type engine struct {
	// triggerInterval is the micro-batch trigger. The paper sets "the
	// job trigger interval to the minimum possible"; the default here
	// is the scheduling floor of the driver loop.
	triggerInterval time.Duration
}

const (
	// maxBatchRecords caps one micro-batch (maxOffsetsPerTrigger).
	maxBatchRecords = 2048
	// executorCores is the executor's task-slot count. Spark's Kafka
	// source creates one task per topic partition regardless of the
	// benchmark's mp knob, and the paper's executor has 60 cores
	// (Table 3) — which is why Figure 11 shows Spark SS high but flat
	// when scaling mp, and why it saturates external servers: a whole
	// micro-batch's tasks issue concurrent inference calls.
	executorCores = 60
)

// newEngine returns an engine with default settings.
func newEngine() *engine {
	return &engine{triggerInterval: time.Millisecond}
}

// Name implements sps.Processor.
func (e *engine) Name() string { return "spark-ss" }

type job struct {
	e    *engine
	spec sps.JobSpec

	stopCh  chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
	errs    sps.ErrTracker
}

// Run implements sps.Processor.
func (e *engine) Run(spec sps.JobSpec) (sps.Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	consumer, err := broker.NewGroupConsumer(spec.Transport, spec.Group, spec.InputTopic)
	if err != nil {
		return nil, err
	}
	producer, err := broker.NewProducer(spec.Transport, spec.OutputTopic)
	if err != nil {
		_ = consumer.Close()
		return nil, err
	}
	j := &job{e: e, spec: spec, stopCh: make(chan struct{})}
	j.wg.Add(1)
	go j.driverLoop(consumer, producer)
	return j, nil
}

func (j *job) Stop() error {
	j.stopped.Do(func() { close(j.stopCh) })
	j.wg.Wait()
	j.spec.CloseBatching()
	return j.errs.Get()
}

func (j *job) Err() error { return j.errs.Get() }

func (j *job) ErrSignal() <-chan struct{} { return j.errs.Signal() }

// driverLoop is the micro-batch scheduler.
func (j *job) driverLoop(consumer *broker.Consumer, producer *broker.Producer) {
	defer j.wg.Done()
	defer func() {
		if err := consumer.Close(); err != nil {
			j.errs.Set(fmt.Errorf("spark-ss: source: %w", err))
		}
	}()
	// Effective stage parallelism: partition-bound tasks on the
	// executor's cores. mp raises it further only beyond the core count
	// (in practice Spark SS is insensitive to mp, as in Figure 11).
	parts, err := j.spec.Transport.Partitions(j.spec.InputTopic)
	if err != nil {
		j.errs.Set(fmt.Errorf("spark-ss: %w", err))
		return
	}
	executors := parts
	if executors > executorCores {
		executors = executorCores
	}
	if mp := j.spec.Parallelism.Score; mp > executors {
		executors = mp
	}
	stages := j.spec.Stages()
	ticker := time.NewTicker(j.e.triggerInterval)
	defer ticker.Stop()
	for {
		select {
		case <-j.stopCh:
			return
		case <-ticker.C:
		}
		// Collect the micro-batch: everything available, up to the cap —
		// never waiting for more, the trigger sets the pace.
		var batch []broker.Record
		for len(batch) < maxBatchRecords {
			recs, err := consumer.Poll(maxBatchRecords-len(batch), 0, nil)
			if err != nil {
				j.errs.Set(fmt.Errorf("spark-ss: poll: %w", err))
				return
			}
			if len(recs) == 0 {
				break
			}
			batch = append(batch, recs...)
		}
		if len(batch) == 0 {
			continue
		}
		stages.In.Add(int64(len(batch)))
		scored := j.runStage(batch, executors, stages.Dropped)
		// Append-mode sink: one batched write.
		if len(scored) > 0 {
			if _, err := j.spec.Transport.Produce(j.spec.OutputTopic, producer.NextPartition(), scored); err != nil {
				j.errs.Set(fmt.Errorf("spark-ss: sink: %w", err))
				stages.Dropped.Add(int64(len(scored)))
			} else {
				stages.Out.Add(int64(len(scored)))
			}
		}
		if err := consumer.Commit(); err != nil {
			j.errs.Set(fmt.Errorf("spark-ss: commit: %w", err))
		}
	}
}

// runStage splits the micro-batch into chunks, executes them on the
// executor pool, and waits for the barrier. Records whose task fails are
// counted on dropped.
func (j *job) runStage(batch []broker.Record, executors int, dropped *telemetry.Counter) []broker.Record {
	if executors > len(batch) {
		executors = len(batch)
	}
	results := make([][]broker.Record, executors)
	chunk := (len(batch) + executors - 1) / executors
	var wg sync.WaitGroup
	for e := 0; e < executors; e++ {
		lo := e * chunk
		hi := lo + chunk
		if hi > len(batch) {
			hi = len(batch)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(e, lo, hi int) {
			defer wg.Done()
			// Each task hands its whole chunk to TransformMany: with
			// batching enabled the chunk's records (and those of the
			// other concurrent tasks) coalesce into shared scorer
			// invocations; without it the records score sequentially
			// as before.
			values := make([][]byte, hi-lo)
			for i, rec := range batch[lo:hi] {
				values[i] = rec.Value
			}
			scoredAll, scoreErrs := j.spec.TransformMany(values)
			out := make([]broker.Record, 0, hi-lo)
			for i := range values {
				if err := scoreErrs[i]; err != nil {
					j.errs.Set(fmt.Errorf("spark-ss: task: %w", err))
					dropped.Inc()
					continue
				}
				out = append(out, broker.Record{Value: scoredAll[i], Timestamp: time.Now()})
			}
			results[e] = out
		}(e, lo, hi)
	}
	wg.Wait() // stage barrier
	var flat []broker.Record
	for _, rs := range results {
		flat = append(flat, rs...)
	}
	return flat
}
