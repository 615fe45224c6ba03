// Package flink implements the Apache Flink analogue: a push-based,
// pipelined dataflow engine (§3.4.1). Records are pushed downstream as
// soon as the source fetches them, stages overlap via bounded
// network-buffer queues (giving natural backpressure), record payloads are
// segmented into fixed-size network buffers (large records span several —
// the buffer-quota effect §5.3.2 discusses), and parallelism is set either
// for the whole DAG (flink[N-N-N], with operators chained into one task
// per slot) or per operator (flink[32-N-32], chaining disabled).
package flink

import (
	"fmt"
	"sync"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/sps"
)

func init() {
	sps.Register("flink", func() sps.Processor { return New() })
}

// Engine is the Flink-analogue processor.
type Engine struct {
	// SegmentSize is the network-buffer segment size in bytes (Flink's
	// memory segments; 32 KiB by default).
	SegmentSize int
	// ChannelDepth is the bounded depth (in records) of the queues
	// between pipeline stages.
	ChannelDepth int
	// AsyncIO runs the scoring operator as Flink's asynchronous I/O
	// operator (unordered wait): up to AsyncCapacity transform calls
	// are in flight per slot and results are emitted as they complete.
	// The paper deliberately keeps external calls blocking for engine
	// fairness (§4.3) and names async I/O as the feature that would
	// lift external serving (§7); this option measures that what-if.
	AsyncIO bool
	// AsyncCapacity bounds in-flight async transforms per slot
	// (Flink's operator capacity); 0 means 16.
	AsyncCapacity int
}

// New returns an engine with default settings (blocking scoring calls, as
// in the paper's evaluation).
func New() *Engine {
	return &Engine{SegmentSize: 32 << 10, ChannelDepth: 64, AsyncCapacity: 16}
}

// Name implements sps.Processor.
func (e *Engine) Name() string { return "flink" }

// pipeRecord is a record payload segmented into network buffers.
type pipeRecord struct {
	segments [][]byte
	size     int
}

// segment copies value into fixed-size network buffers.
func (e *Engine) segment(value []byte) pipeRecord {
	segSize := e.SegmentSize
	if segSize <= 0 {
		segSize = 32 << 10
	}
	n := (len(value) + segSize - 1) / segSize
	if n == 0 {
		n = 1
	}
	segs := make([][]byte, 0, n)
	for off := 0; off < len(value) || off == 0; off += segSize {
		end := off + segSize
		if end > len(value) {
			end = len(value)
		}
		seg := make([]byte, end-off)
		copy(seg, value[off:end])
		segs = append(segs, seg)
		if end == len(value) {
			break
		}
	}
	return pipeRecord{segments: segs, size: len(value)}
}

// reassemble concatenates the segments back into one payload.
func (r pipeRecord) reassemble() []byte {
	out := make([]byte, 0, r.size)
	for _, seg := range r.segments {
		out = append(out, seg...)
	}
	return out
}

// job is a running Flink job.
type job struct {
	e    *Engine
	spec sps.JobSpec

	stopCh  chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
	errs    sps.ErrTracker
}

// Run implements sps.Processor.
func (e *Engine) Run(spec sps.JobSpec) (sps.Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	j := &job{e: e, spec: spec, stopCh: make(chan struct{})}
	if spec.Parallelism.Uniform() {
		return j, j.startChained()
	}
	return j, j.startUnchained()
}

func (j *job) Stop() error {
	j.stopped.Do(func() { close(j.stopCh) })
	j.wg.Wait()
	j.spec.CloseBatching()
	return j.errs.Get()
}

func (j *job) Err() error { return j.errs.Get() }

func (j *job) ErrSignal() <-chan struct{} { return j.errs.Signal() }

// partitionSplit spreads the input partitions over n source tasks.
func partitionSplit(t broker.Transport, topic string, n int) ([][]int, error) {
	parts, err := t.Partitions(topic)
	if err != nil {
		return nil, err
	}
	out := make([][]int, n)
	for p := 0; p < parts; p++ {
		out[p%n] = append(out[p%n], p)
	}
	return out, nil
}

// SinkFlushRecords is the chained sink operator's small client buffer:
// the task thread flushes it synchronously, so with operator chaining the
// write path shares the slot's resources — the reading/writing resource
// constraint §6.1 identifies in flink[N-N-N]. Disabling chaining
// (operator-level parallelism) moves sinks to dedicated tasks with fully
// asynchronous batching producers.
const SinkFlushRecords = 4

// startChained launches the flink[N-N-N] topology: N task slots, each
// running the whole chained pipeline — source poll, record reassembly,
// scoring, and the synchronous sink flush — on one task thread, exactly
// what operator chaining does to a source→map→sink DAG.
func (j *job) startChained() error {
	n := j.spec.Parallelism.Default
	split, err := partitionSplit(j.spec.Transport, j.spec.InputTopic, n)
	if err != nil {
		return err
	}
	for slot := 0; slot < n; slot++ {
		if len(split[slot]) == 0 {
			continue
		}
		consumer, err := broker.NewAssignedConsumer(j.spec.Transport, j.spec.InputTopic, split[slot]...)
		if err != nil {
			return err
		}
		producer, err := broker.NewProducer(j.spec.Transport, j.spec.OutputTopic)
		if err != nil {
			return err
		}
		j.wg.Add(1)
		go j.chainedSlot(consumer, producer)
	}
	return nil
}

// chainedSlot is one flink[N-N-N] task slot: poll → segment/reassemble →
// score → buffered sink flush, all on this goroutine. With AsyncIO the
// scoring step becomes Flink's async operator: the slot keeps polling
// while up to AsyncCapacity transforms are in flight, and completed
// results flush unordered.
func (j *job) chainedSlot(consumer *broker.Consumer, producer *broker.Producer) {
	defer j.wg.Done()
	max := j.spec.PollMax
	if max <= 0 {
		max = j.e.ChannelDepth
	}
	stages := j.spec.Stages()

	var mu sync.Mutex // guards sinkBuf in async mode
	var sinkBuf []broker.Record
	flush := func() {
		mu.Lock()
		batch := sinkBuf
		sinkBuf = nil
		mu.Unlock()
		if len(batch) == 0 {
			return
		}
		if _, _, err := producer.SendBatch(batch); err != nil {
			j.errs.Set(fmt.Errorf("flink: sink: %w", err))
			stages.Dropped.Add(int64(len(batch)))
			return
		}
		stages.Out.Add(int64(len(batch)))
	}
	emit := func(scored []byte) {
		mu.Lock()
		sinkBuf = append(sinkBuf, broker.Record{Value: scored, Timestamp: time.Now()})
		full := len(sinkBuf) >= SinkFlushRecords
		mu.Unlock()
		if full {
			flush()
		}
	}

	capacity := j.e.AsyncCapacity
	if capacity <= 0 {
		capacity = 16
	}
	inflight := make(chan struct{}, capacity)
	var pending sync.WaitGroup
	score := func(value []byte) {
		scored, err := j.spec.Transform(value)
		if err != nil {
			j.errs.Set(fmt.Errorf("flink: scoring: %w", err))
			stages.Dropped.Inc()
			return
		}
		emit(scored)
	}

	for {
		select {
		case <-j.stopCh:
			pending.Wait()
			flush()
			return
		default:
		}
		recs, err := consumer.Poll(max, broker.FetchMaxWait, j.stopCh)
		if err != nil {
			j.errs.Set(fmt.Errorf("flink: source: %w", err))
			pending.Wait()
			flush()
			return
		}
		if len(recs) == 0 {
			continue
		}
		stages.In.Add(int64(len(recs)))
		if !j.e.AsyncIO {
			// The synchronous task thread scores the poll's records
			// through TransformMany: with batching enabled this slot's
			// records coalesce (with other slots') into shared scorer
			// invocations; without it the loop is sequential as before.
			// Results return positionally, preserving emit order.
			values := make([][]byte, len(recs))
			for i, rec := range recs {
				// The record still crosses the network-buffer segment
				// boundary between the source and the chained task.
				values[i] = j.e.segment(rec.Value).reassemble()
			}
			scoredAll, scoreErrs := j.spec.TransformMany(values)
			for i := range values {
				if err := scoreErrs[i]; err != nil {
					j.errs.Set(fmt.Errorf("flink: scoring: %w", err))
					stages.Dropped.Inc()
					continue
				}
				emit(scoredAll[i])
			}
			// End of the poll's records: flush so low-rate events do
			// not linger in the client buffer.
			flush()
			continue
		}
		for _, rec := range recs {
			value := j.e.segment(rec.Value).reassemble()
			inflight <- struct{}{}
			pending.Add(1)
			go func(v []byte) {
				defer pending.Done()
				score(v)
				<-inflight
				if len(inflight) == 0 {
					// Nothing else in flight: the source may be parked in
					// its poll, so the results must not wait for it.
					flush()
				}
			}(value)
		}
	}
}

// startUnchained launches the operator-parallel topology: Source tasks →
// scoring queue → Score tasks → sink queue → Sink tasks.
func (j *job) startUnchained() error {
	p := j.spec.Parallelism
	split, err := partitionSplit(j.spec.Transport, j.spec.InputTopic, p.Source)
	if err != nil {
		return err
	}
	scoreCh := make(chan pipeRecord, j.e.ChannelDepth*p.Score)
	sinkCh := make(chan []byte, j.e.ChannelDepth*p.Sink)

	var sources sync.WaitGroup
	for s := 0; s < p.Source; s++ {
		if len(split[s]) == 0 {
			continue
		}
		consumer, err := broker.NewAssignedConsumer(j.spec.Transport, j.spec.InputTopic, split[s]...)
		if err != nil {
			return err
		}
		sources.Add(1)
		j.wg.Add(1)
		go func() {
			defer sources.Done()
			j.sourceLoop(consumer, scoreCh)
		}()
	}

	stages := j.spec.Stages()
	var scorers sync.WaitGroup
	for s := 0; s < p.Score; s++ {
		scorers.Add(1)
		j.wg.Add(1)
		go func() {
			defer j.wg.Done()
			defer scorers.Done()
			for rec := range scoreCh {
				scored, err := j.spec.Transform(rec.reassemble())
				if err != nil {
					j.errs.Set(fmt.Errorf("flink: scoring: %w", err))
					stages.Dropped.Inc()
					continue
				}
				sinkCh <- scored
			}
		}()
	}

	for s := 0; s < p.Sink; s++ {
		producer, err := broker.NewAsyncProducer(j.spec.Transport, j.spec.OutputTopic, j.e.ChannelDepth)
		if err != nil {
			return err
		}
		j.wg.Add(1)
		go func() {
			defer j.wg.Done()
			for scored := range sinkCh {
				if err := producer.Send(scored); err != nil {
					j.errs.Set(fmt.Errorf("flink: sink: %w", err))
					stages.Dropped.Inc()
					continue
				}
				stages.Out.Inc()
			}
			if err := producer.Close(); err != nil {
				j.errs.Set(fmt.Errorf("flink: sink: %w", err))
			}
		}()
	}

	// Close the stage queues once upstream drains, so Stop() flushes
	// in-flight records before returning.
	go func() {
		sources.Wait()
		close(scoreCh)
		scorers.Wait()
		close(sinkCh)
	}()
	return nil
}

// sourceLoop polls the broker and pushes segmented records downstream
// until stopped. The bounded channel write is the backpressure point.
func (j *job) sourceLoop(consumer *broker.Consumer, out chan<- pipeRecord) {
	defer j.wg.Done()
	max := j.spec.PollMax
	if max <= 0 {
		max = j.e.ChannelDepth
	}
	stages := j.spec.Stages()
	for {
		select {
		case <-j.stopCh:
			return
		default:
		}
		recs, err := consumer.Poll(max, broker.FetchMaxWait, j.stopCh)
		if err != nil {
			j.errs.Set(fmt.Errorf("flink: source: %w", err))
			return
		}
		if len(recs) == 0 {
			continue
		}
		stages.In.Add(int64(len(recs)))
		for _, rec := range recs {
			select {
			case out <- j.e.segment(rec.Value):
			case <-j.stopCh:
				return
			}
		}
	}
}
