package flink

import (
	"fmt"
	"sync"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/sps"
)

// Checkpoint is a consistent snapshot of the job's source offsets: every
// record before these positions has been scored and flushed to the sink.
// Restarting a job from a checkpoint replays at most the records between
// the snapshot and the failure — Flink's at-least-once contract, the
// processing guarantee §1 credits embedded serving pipelines with.
type Checkpoint struct {
	Positions map[broker.TopicPartition]int64
}

// clone deep-copies the checkpoint.
func (c Checkpoint) clone() Checkpoint {
	out := Checkpoint{Positions: make(map[broker.TopicPartition]int64, len(c.Positions))}
	for tp, off := range c.Positions {
		out.Positions[tp] = off
	}
	return out
}

// CheckpointedJob is a running job that takes periodic checkpoints.
type CheckpointedJob interface {
	sps.Job
	// LatestCheckpoint returns the most recent completed checkpoint.
	// The boolean is false before the first checkpoint completes.
	LatestCheckpoint() (Checkpoint, bool)
}

// RunCheckpointed starts a chained (uniform-parallelism) job that
// snapshots source offsets every interval, after the in-flight poll batch
// has been fully scored and flushed. Restore from a previous checkpoint
// by passing it as from; pass a zero Checkpoint to start fresh.
//
// Checkpointing requires the chained topology: with operator-level
// parallelism the source runs ahead of the scoring tasks, and an aligned
// barrier protocol would be needed for a consistent snapshot.
func (e *Engine) RunCheckpointed(spec sps.JobSpec, from Checkpoint, interval time.Duration) (CheckpointedJob, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !spec.Parallelism.Uniform() {
		return nil, fmt.Errorf("flink: checkpointing requires uniform parallelism (chained operators)")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("flink: checkpoint interval must be positive")
	}
	consumers, producers, err := chainedClients(spec)
	if err != nil {
		return nil, err
	}
	j := &job{e: e, spec: spec, stopCh: make(chan struct{})}
	cj := &checkpointedJob{job: j, interval: interval}
	for slot, consumer := range consumers {
		for tp, off := range from.Positions {
			consumer.Seek(tp, off)
		}
		j.wg.Add(1)
		go cj.checkpointedSlot(consumer, producers[slot])
	}
	return cj, nil
}

// checkpointedJob wraps a chained job with checkpoint bookkeeping.
type checkpointedJob struct {
	*job
	interval time.Duration

	mu     sync.Mutex
	latest Checkpoint
	taken  bool
}

// LatestCheckpoint implements CheckpointedJob.
func (cj *checkpointedJob) LatestCheckpoint() (Checkpoint, bool) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if !cj.taken {
		return Checkpoint{}, false
	}
	return cj.latest.clone(), true
}

// snapshot merges one slot's positions into the latest checkpoint.
func (cj *checkpointedJob) snapshot(positions map[broker.TopicPartition]int64) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if cj.latest.Positions == nil {
		cj.latest.Positions = make(map[broker.TopicPartition]int64)
	}
	for tp, off := range positions {
		cj.latest.Positions[tp] = off
	}
	cj.taken = true
}

// checkpointedSlot is chainedSlot plus periodic offset snapshots taken at
// poll-batch boundaries (every polled record has been scored and flushed
// when the snapshot fires).
func (cj *checkpointedJob) checkpointedSlot(consumer *broker.Consumer, producer *broker.Producer) {
	j := cj.job
	defer j.wg.Done()
	stages := j.spec.Stages()
	var sinkBuf []broker.Record
	flush := func() {
		if len(sinkBuf) == 0 {
			return
		}
		if _, _, err := producer.SendBatch(sinkBuf); err != nil {
			j.errs.Set(fmt.Errorf("flink: sink: %w", err))
			stages.Dropped.Add(int64(len(sinkBuf)))
		} else {
			stages.Out.Add(int64(len(sinkBuf)))
		}
		sinkBuf = sinkBuf[:0]
	}
	lastCp := time.Now()
	for {
		select {
		case <-j.stopCh:
			flush()
			cj.snapshot(consumer.Positions())
			return
		default:
		}
		// Every polled record is scored and flushed by now: a consistent
		// snapshot point, busy or idle. The poll parks no longer than
		// until the next one is due.
		due := cj.interval - time.Since(lastCp)
		if due <= 0 {
			cj.snapshot(consumer.Positions())
			lastCp = time.Now()
			continue
		}
		recs, err := consumer.Poll(channelDepth, min(due, broker.FetchMaxWait), j.stopCh)
		if err != nil {
			j.errs.Set(fmt.Errorf("flink: source: %w", err))
			return
		}
		stages.In.Add(int64(len(recs)))
		for _, rec := range recs {
			scored, err := j.spec.Transform(segment(rec.Value).reassemble())
			if err != nil {
				j.errs.Set(fmt.Errorf("flink: scoring: %w", err))
				stages.Dropped.Inc()
				continue
			}
			sinkBuf = append(sinkBuf, broker.Record{Value: scored, Timestamp: time.Now()})
			if len(sinkBuf) >= SinkFlushRecords {
				flush()
			}
		}
		flush()
	}
}
