// Package sparkss implements the Spark Structured Streaming analogue: a
// micro-batch engine (§3.4.1). A driver loop fires on a trigger interval,
// collects every record available on the input topic into a micro-batch,
// hands it to a stage run on a pool of executor cores, waits for the
// stage barrier, appends the results to the sink in one batched write,
// and commits — trading latency (the micro-batch floor Figure 10
// shows) for throughput (the batching that saturates external servers in
// Figure 11).
package sparkss

import (
	"fmt"
	"sync"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/sps"
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
	// Effective stage parallelism: partition-bound tasks on the
	// executor's cores. mp raises it further only beyond the core count
	// (in practice Spark SS is insensitive to mp, as in Figure 11).
	parts, err := spec.Transport.Partitions(spec.InputTopic)
	if err != nil {
		_ = consumer.Close()
		return nil, err
	}
	executors := max(min(parts, executorCores), spec.Parallelism.Default)
	j := &job{e: e, spec: spec, stopCh: make(chan struct{})}
	j.wg.Add(1)
	go j.driverLoop(consumer, producer, j.spec.Submitter(executors))
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

// driverLoop is the micro-batch scheduler. The stage runs the whole
// micro-batch through the driver's Submitter, whose parallelism is the
// executor count: unbatched, the executors share the records out;
// batched, the micro-batch is one submission whose batches flush on
// the executors — and since the driver is the only submitter and parks
// at the stage barrier, the last, partial batch ships at once instead
// of waiting out a linger no record could arrive in.
func (j *job) driverLoop(consumer *broker.Consumer, producer *broker.Producer, stage *sps.Submitter) {
	defer j.wg.Done()
	defer stage.Close()
	defer func() {
		if err := consumer.Close(); err != nil {
			j.errs.Set(fmt.Errorf("spark-ss: source: %w", err))
		}
	}()
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
		values := make([][]byte, len(batch))
		for i, rec := range batch {
			values[i] = rec.Value
		}
		scoredAll, scoreErrs := stage.TransformMany(values) // stage barrier
		scored := make([]broker.Record, 0, len(batch))
		for i := range values {
			if err := scoreErrs[i]; err != nil {
				j.errs.Set(fmt.Errorf("spark-ss: task: %w", err))
				stages.Dropped.Inc()
				continue
			}
			scored = append(scored, broker.Record{Value: scoredAll[i], Timestamp: time.Now()})
		}
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
