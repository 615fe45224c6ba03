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
	*sps.Running
	e *engine
}

// Run implements sps.Processor.
func (e *engine) Run(spec sps.JobSpec) (sps.Job, error) {
	run, err := sps.Start(e.Name(), spec)
	if err != nil {
		return nil, err
	}
	j := &job{Running: run, e: e}
	consumer, err := broker.NewGroupConsumer(j.Spec.Transport, j.Spec.Group, j.Spec.InputTopic)
	if err != nil {
		return nil, err
	}
	producer, err := broker.NewProducer(j.Spec.Transport, j.Spec.OutputTopic)
	if err != nil {
		_ = consumer.Close()
		return nil, err
	}
	// Effective stage parallelism: partition-bound tasks on the
	// executor's cores. mp raises it further only beyond the core count
	// (in practice Spark SS is insensitive to mp, as in Figure 11).
	parts, err := j.Spec.Transport.Partitions(j.Spec.InputTopic)
	if err != nil {
		_ = consumer.Close()
		return nil, err
	}
	stage := j.Spec.Submitter(max(min(parts, executorCores), j.Spec.Parallelism.Default))
	j.Go(func() { j.driverLoop(consumer, producer, stage) })
	return j, nil
}

// driverLoop is the micro-batch scheduler. The stage runs the whole
// micro-batch through the driver's Submitter, whose parallelism is the
// executor count: unbatched, the executors share the records out;
// batched, the micro-batch is one submission whose batches flush on
// the executors — and since the driver is the only submitter and parks
// at the stage barrier, the last, partial batch ships at once instead
// of waiting out a linger no record could arrive in.
func (j *job) driverLoop(consumer *broker.Consumer, producer *broker.Producer, stage *sps.Submitter) {
	defer stage.Close()
	defer func() { j.Fail("source", consumer.Close()) }()
	ticker := time.NewTicker(j.e.triggerInterval)
	defer ticker.Stop()
	for {
		select {
		case <-j.Stopping():
			return
		case <-ticker.C:
		}
		// Collect the micro-batch: everything available, up to the cap —
		// never waiting for more, the trigger sets the pace.
		var batch []broker.Record
		for len(batch) < maxBatchRecords {
			recs, err := consumer.Poll(maxBatchRecords-len(batch), 0, nil)
			if err != nil {
				j.Fail("poll", err)
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
		j.Polled(len(batch))
		values := make([][]byte, len(batch))
		for i, rec := range batch {
			values[i] = rec.Value
		}
		scored := make([]broker.Record, 0, len(batch))
		j.Score(stage, values, func(v []byte) { // stage barrier
			scored = append(scored, broker.Record{Value: v, Timestamp: time.Now()})
		})
		// Append-mode sink: one batched write.
		if len(scored) > 0 {
			_, err := j.Spec.Transport.Produce(j.Spec.OutputTopic, producer.NextPartition(), scored)
			j.Sent(len(scored), err)
		}
		j.Fail("commit", consumer.Commit())
	}
}
