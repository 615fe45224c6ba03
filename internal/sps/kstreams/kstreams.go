// Package kstreams implements the Kafka Streams analogue: a pull-based
// stream-processing library (§3.4.1). Each stream thread polls a record
// batch from its assigned partitions, runs every record through the whole
// DAG (source → transform → sink), commits its offsets, and only then
// polls again — events traverse the full topology before the next
// ingestion request, exactly the pull model Figure 4 depicts. Scaling is
// achieved by running more stream threads over the topic's partitions.
package kstreams

import (
	"fmt"
	"sync"
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
	e    *engine
	spec sps.JobSpec

	stopCh  chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
	errs    sps.ErrTracker
}

// Run implements sps.Processor. Kafka Streams has no operator-level
// parallelism: the topology is replicated across stream threads, so the
// scoring parallelism (mp) sets the thread count.
func (e *engine) Run(spec sps.JobSpec) (sps.Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	j := &job{e: e, spec: spec, stopCh: make(chan struct{})}
	threads := spec.Parallelism.Default
	parts, err := spec.Transport.Partitions(spec.InputTopic)
	if err != nil {
		return nil, err
	}
	if threads > parts {
		// Threads beyond the partition count would idle, as in Kafka
		// Streams itself.
		threads = parts
	}
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
		consumer, err := broker.NewGroupConsumer(spec.Transport, spec.Group, spec.InputTopic)
		if err != nil {
			return fail(err)
		}
		producer, err := broker.NewAsyncProducer(spec.Transport, spec.OutputTopic, e.pollRecords*2)
		if err != nil {
			_ = consumer.Close()
			return fail(err)
		}
		pairs = append(pairs, pair{consumer, producer})
	}
	for _, p := range pairs {
		j.wg.Add(1)
		go j.streamThread(p.consumer, p.producer, j.spec.Submitter(1))
	}
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

// streamThread is the poll → process-whole-DAG → commit loop. The sink is
// a batching async producer (Kafka Streams uses the Kafka producer client
// underneath) that is flushed before every offset commit, preserving
// at-least-once semantics.
func (j *job) streamThread(consumer *broker.Consumer, producer *broker.AsyncProducer, scorer *sps.Submitter) {
	defer j.wg.Done()
	defer scorer.Close()
	defer func() {
		if err := consumer.Close(); err != nil {
			j.errs.Set(fmt.Errorf("kafka-streams: source: %w", err))
		}
	}()
	defer func() {
		if err := producer.Close(); err != nil {
			j.errs.Set(fmt.Errorf("kafka-streams: sink: %w", err))
		}
	}()
	stages := j.spec.Stages()
	lastCommit := time.Now()
	for {
		select {
		case <-j.stopCh:
			return
		default:
		}
		recs, err := consumer.Poll(j.e.pollRecords, broker.FetchMaxWait, j.stopCh)
		if err != nil {
			j.errs.Set(fmt.Errorf("kafka-streams: poll: %w", err))
			return
		}
		if len(recs) == 0 {
			continue
		}
		// Re-check after the poll: a peer thread that saw the stop may
		// already have closed its consumer, and the resulting rebalance
		// makes this poll re-deliver the peer's uncommitted records.
		// They are uncommitted either way — drop them rather than
		// double-process on the way out (the leave happens-after the
		// stop closed, so this check always catches the re-delivery).
		select {
		case <-j.stopCh:
			return
		default:
		}
		stages.In.Add(int64(len(recs)))
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
		scoredAll, scoreErrs := scorer.TransformMany(values)
		for i := range recs {
			if err := scoreErrs[i]; err != nil {
				j.errs.Set(fmt.Errorf("kafka-streams: transform: %w", err))
				stages.Dropped.Inc()
				continue
			}
			if err := producer.Send(scoredAll[i]); err != nil {
				j.errs.Set(fmt.Errorf("kafka-streams: sink: %w", err))
				stages.Dropped.Inc()
				continue
			}
			stages.Out.Inc()
		}
		if j.e.commitInterval <= 0 || time.Since(lastCommit) >= j.e.commitInterval {
			if err := producer.Flush(); err != nil {
				j.errs.Set(fmt.Errorf("kafka-streams: sink: %w", err))
			}
			if err := consumer.Commit(); err != nil {
				j.errs.Set(fmt.Errorf("kafka-streams: commit: %w", err))
			}
			lastCommit = time.Now()
		}
	}
}
