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
	// AsyncIO runs the scoring operator as Flink's asynchronous I/O
	// operator (unordered wait): up to asyncCapacity transform calls
	// are in flight per slot and results are emitted as they complete.
	// The paper deliberately keeps external calls blocking for engine
	// fairness (§4.3) and names async I/O as the feature that would
	// lift external serving (§7); this option measures that what-if.
	AsyncIO bool
}

const (
	// segmentSize is the network-buffer segment size in bytes (Flink's
	// 32 KiB memory segments).
	segmentSize = 32 << 10
	// channelDepth is the bounded depth, in records, of the queues
	// between pipeline stages, and the most records one source poll
	// fetches.
	channelDepth = 64
	// asyncCapacity bounds in-flight async transforms per slot (Flink's
	// async operator capacity).
	asyncCapacity = 16
)

// New returns an engine with default settings (blocking scoring calls, as
// in the paper's evaluation).
func New() *Engine { return &Engine{} }

// Name implements sps.Processor.
func (e *Engine) Name() string { return "flink" }

// pipeRecord is a record payload segmented into network buffers.
type pipeRecord struct {
	segments [][]byte
	size     int
}

// segment copies value into fixed-size network buffers.
func segment(value []byte) pipeRecord {
	n := (len(value) + segmentSize - 1) / segmentSize
	if n == 0 {
		n = 1
	}
	segs := make([][]byte, 0, n)
	for off := 0; off < len(value) || off == 0; off += segmentSize {
		end := off + segmentSize
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
	start := j.startUnchained
	if spec.Parallelism.Uniform() {
		start = j.startChained
	}
	if err := start(); err != nil {
		return nil, err
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

// newSources spreads the input partitions over n source tasks and builds
// a consumer for each task that owns any: tasks beyond the partition
// count get nothing to run.
func newSources(spec sps.JobSpec, n int) ([]*broker.Consumer, error) {
	parts, err := spec.Transport.Partitions(spec.InputTopic)
	if err != nil {
		return nil, err
	}
	split := make([][]int, min(n, parts))
	for p := 0; p < parts; p++ {
		split[p%len(split)] = append(split[p%len(split)], p)
	}
	consumers := make([]*broker.Consumer, 0, len(split))
	for _, owned := range split {
		c, err := broker.NewAssignedConsumer(spec.Transport, spec.InputTopic, owned...)
		if err != nil {
			closeConsumers(consumers)
			return nil, err
		}
		consumers = append(consumers, c)
	}
	return consumers, nil
}

// closeConsumers releases the consumers a failed start built.
func closeConsumers(consumers []*broker.Consumer) {
	for _, c := range consumers {
		_ = c.Close()
	}
}

// sinkFlushRecords is the chained sink operator's small client buffer:
// the task thread flushes it synchronously, so with operator chaining the
// write path shares the slot's resources — the reading/writing resource
// constraint §6.1 identifies in flink[N-N-N]. Disabling chaining
// (operator-level parallelism) moves sinks to dedicated tasks with fully
// asynchronous batching producers.
const sinkFlushRecords = 4

// startChained launches the flink[N-N-N] topology: N task slots, each
// running the whole chained pipeline — source poll, record reassembly,
// scoring, and the synchronous sink flush — on one task thread, exactly
// what operator chaining does to a source→map→sink DAG. Every client is
// built before any slot starts, so a failed start leaves nothing running.
func (j *job) startChained() error {
	consumers, producers, err := chainedClients(j.spec)
	if err != nil {
		return err
	}
	for slot, consumer := range consumers {
		// The synchronous slot scores each poll as one record set;
		// the async operator submits record by record and stays out
		// of the batcher's quorum.
		var scorer *sps.Submitter
		if !j.e.AsyncIO {
			scorer = j.spec.Submitter(1)
		}
		j.wg.Add(1)
		go j.chainedSlot(consumer, producers[slot], scorer)
	}
	return nil
}

// chainedClients builds each chained slot's source consumer and sink
// producer; slots beyond the partition count get neither.
func chainedClients(spec sps.JobSpec) ([]*broker.Consumer, []*broker.Producer, error) {
	consumers, err := newSources(spec, spec.Parallelism.Default)
	if err != nil {
		return nil, nil, err
	}
	producers := make([]*broker.Producer, len(consumers))
	for slot := range consumers {
		if producers[slot], err = broker.NewProducer(spec.Transport, spec.OutputTopic); err != nil {
			closeConsumers(consumers)
			return nil, nil, err
		}
	}
	return consumers, producers, nil
}

// chainedSlot is one flink[N-N-N] task slot: poll → segment/reassemble →
// score → buffered sink flush, all on this goroutine. With AsyncIO the
// scoring step becomes Flink's async operator: the slot keeps polling
// while up to asyncCapacity transforms are in flight, and completed
// results flush unordered; scorer is nil then.
func (j *job) chainedSlot(consumer *broker.Consumer, producer *broker.Producer, scorer *sps.Submitter) {
	defer j.wg.Done()
	if scorer != nil {
		defer scorer.Close()
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
		full := len(sinkBuf) >= sinkFlushRecords
		mu.Unlock()
		if full {
			flush()
		}
	}

	inflight := make(chan struct{}, asyncCapacity)
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
		recs, err := consumer.Poll(channelDepth, broker.FetchMaxWait, j.stopCh)
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
			// through its Submitter: with batching enabled this slot's
			// records coalesce (with other slots') into shared scorer
			// invocations; without it the loop is sequential as before.
			// Results return positionally, preserving emit order.
			values := make([][]byte, len(recs))
			for i, rec := range recs {
				// The record still crosses the network-buffer segment
				// boundary between the source and the chained task.
				values[i] = segment(rec.Value).reassemble()
			}
			scoredAll, scoreErrs := scorer.TransformMany(values)
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
			value := segment(rec.Value).reassemble()
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
// scoring queue → Score tasks → sink queue → Sink tasks. Every client is
// built before any task starts, so a failed start leaves nothing running.
func (j *job) startUnchained() error {
	p := j.spec.Parallelism
	consumers, err := newSources(j.spec, p.Source)
	if err != nil {
		return err
	}
	producers := make([]*broker.AsyncProducer, 0, p.Sink)
	for s := 0; s < p.Sink; s++ {
		producer, err := broker.NewAsyncProducer(j.spec.Transport, j.spec.OutputTopic, channelDepth)
		if err != nil {
			closeConsumers(consumers)
			for _, producer := range producers {
				_ = producer.Close()
			}
			return err
		}
		producers = append(producers, producer)
	}
	scoreCh := make(chan pipeRecord, channelDepth*p.Default)
	sinkCh := make(chan []byte, channelDepth*p.Sink)

	var sources sync.WaitGroup
	for _, consumer := range consumers {
		sources.Add(1)
		j.wg.Add(1)
		go func() {
			defer sources.Done()
			j.sourceLoop(consumer, scoreCh)
		}()
	}

	stages := j.spec.Stages()
	var scorers sync.WaitGroup
	for s := 0; s < p.Default; s++ {
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

	for _, producer := range producers {
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
	stages := j.spec.Stages()
	for {
		select {
		case <-j.stopCh:
			return
		default:
		}
		recs, err := consumer.Poll(channelDepth, broker.FetchMaxWait, j.stopCh)
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
			case out <- segment(rec.Value):
			case <-j.stopCh:
				return
			}
		}
	}
}
