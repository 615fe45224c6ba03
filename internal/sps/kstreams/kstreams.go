// Package kstreams implements the Kafka Streams analogue: a pull-based
// stream-processing library (§3.4.1). Each stream thread polls a record
// batch from its assigned partitions, runs every record through the whole
// DAG (source → transform → sink), commits its offsets, and only then
// polls again — events traverse the full topology before the next
// ingestion request, exactly the pull model Figure 4 depicts. Scaling is
// achieved by running more stream threads over the topic's partitions.
package kstreams

import (
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/sps"
)

func init() {
	sps.Register("kafka-streams", func() sps.Processor { return newEngine() })
}

// engine is the Kafka-Streams-analogue processor.
type engine struct {
	// pollRecords is the max records fetched per poll (max.poll.records).
	pollRecords int
	// commitInterval throttles offset commits; zero or less commits after
	// every processed batch.
	commitInterval time.Duration
}

// newEngine returns an engine with default settings: max.poll.records=500 and a
// 1-second commit interval, matching the Kafka client defaults the paper's
// deployment runs with (commit.interval.ms scaled to this repository's
// shorter experiment durations).
func newEngine() *engine {
	return &engine{pollRecords: 500, commitInterval: time.Second}
}

// Name implements sps.Processor.
func (e *engine) Name() string { return "kafka-streams" }

type job struct {
	*sps.Running
	e *engine
}

// Run implements sps.Processor. Kafka Streams has no operator-level
// parallelism: the topology is replicated across stream threads, so the
// scoring parallelism (mp) sets the thread count.
func (e *engine) Run(spec sps.JobSpec) (sps.Job, error) {
	run, err := sps.Start(e.Name(), spec)
	if err != nil {
		return nil, err
	}
	j := &job{Running: run, e: e}
	parts, err := j.Spec.Transport.Partitions(j.Spec.InputTopic)
	if err != nil {
		return nil, err
	}
	// Threads beyond the partition count would idle, as in Kafka
	// Streams itself.
	threads := min(j.Spec.Parallelism.Default, parts)
	// Every thread's consumer joins the group before any thread polls:
	// each join bumps the group generation, and a thread polling under
	// an assignment about to be rebalanced away would re-deliver its
	// uncommitted records to the new owner (at-least-once duplicates
	// before the topology even settles).
	type pair struct {
		consumer *broker.Consumer
		producer *broker.AsyncProducer
	}
	pairs := make([]pair, 0, threads)
	fail := func(err error) (sps.Job, error) {
		for _, p := range pairs {
			_ = p.consumer.Close()
			_ = p.producer.Close()
		}
		return nil, err
	}
	for i := 0; i < threads; i++ {
		consumer, err := broker.NewGroupConsumer(j.Spec.Transport, j.Spec.Group, j.Spec.InputTopic)
		if err != nil {
			return fail(err)
		}
		producer, err := broker.NewAsyncProducer(j.Spec.Transport, j.Spec.OutputTopic, e.pollRecords*2)
		if err != nil {
			_ = consumer.Close()
			return fail(err)
		}
		pairs = append(pairs, pair{consumer, producer})
	}
	for _, p := range pairs {
		scorer := j.Spec.Submitter(1)
		j.Go(func() { j.streamThread(p.consumer, p.producer, scorer) })
	}
	return j, nil
}

// streamThread is the poll → process-whole-DAG → commit loop. The sink is
// a batching async producer (Kafka Streams uses the Kafka producer client
// underneath) that is flushed before every offset commit, preserving
// at-least-once semantics.
func (j *job) streamThread(consumer *broker.Consumer, producer *broker.AsyncProducer, scorer *sps.Submitter) {
	defer scorer.Close()
	defer func() { j.Fail("source", consumer.Close()) }()
	defer func() { j.Fail("sink", producer.Close()) }()
	emit := func(scored []byte) { j.Sent(1, producer.Send(scored)) }
	lastCommit := time.Now()
	for {
		recs, ok := j.Poll(consumer, j.e.pollRecords)
		if !ok {
			return
		}
		// Re-check after the poll: a peer thread that saw the stop may
		// already have closed its consumer, and the resulting rebalance
		// makes this poll re-deliver the peer's uncommitted records.
		// They are uncommitted either way — drop them rather than
		// double-process on the way out (the leave happens-after the
		// stop closed, so this check always catches the re-delivery).
		select {
		case <-j.Stopping():
			return
		default:
		}
		// The whole poll goes through the thread's Submitter: with
		// batching enabled the records coalesce into shared scorer
		// invocations (this thread's contribution to the cross-thread
		// batch); without it the call degrades to the sequential
		// per-record loop. Results come back positionally, so sink
		// order is unchanged.
		values := make([][]byte, len(recs))
		for i, rec := range recs {
			values[i] = rec.Value
		}
		j.Score(scorer, values, emit)
		if j.e.commitInterval <= 0 || time.Since(lastCommit) >= j.e.commitInterval {
			j.Fail("sink", producer.Flush())
			j.Fail("commit", consumer.Commit())
			lastCommit = time.Now()
		}
	}
}
