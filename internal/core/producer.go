package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/loadgen"
	"crayfish/internal/telemetry"
)

// InputProducer is the Crayfish input workload producer (§3.1): it
// generates synthetic CrayfishDataBatch events and writes them to the
// Kafka input topic, recording the start timestamp before the write
// (§3.3 step 1). Pacing is delegated to the workload's arrival policy
// (Workload.LoadPolicy → internal/loadgen): the producer walks the
// deterministic arrival schedule and a loadgen.Pacer turns offsets into
// waits on the clock.
type InputProducer struct {
	w       Workload
	codec   BatchCodec
	prod    *broker.Producer
	dataset *dataset

	// Metrics, when set before Run, publishes live producer telemetry
	// (producer.*, loadgen.*; see docs/OBSERVABILITY.md).
	Metrics *telemetry.Registry

	// Gate, when set, implements closed-loop issue control (the
	// single-/multi-stream scenarios): before generating event #issued
	// the producer flushes its pending batch and calls Gate, which
	// blocks until the outstanding-query window opens. A false return
	// stops production gracefully.
	Gate func(issued int) bool

	// Clock overrides the pacer's clock; the zero value is the wall
	// clock. Tests inject a virtual clock here.
	Clock loadgen.Clock

	mu       sync.Mutex
	produced int
}

// NewInputProducer builds a producer for the workload writing to topic.
func NewInputProducer(t broker.Transport, topic string, w Workload, codec BatchCodec) (*InputProducer, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if codec == nil {
		codec = JSONCodec{}
	}
	p, err := broker.NewProducer(t, topic)
	if err != nil {
		return nil, err
	}
	ds, err := loadDataset(&w)
	if err != nil {
		return nil, err
	}
	return &InputProducer{w: w, codec: codec, prod: p, dataset: ds}, nil
}

// Produced returns how many events were emitted so far.
func (p *InputProducer) Produced() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.produced
}

// Run generates events until the workload duration elapses, MaxEvents is
// reached, the arrival schedule ends (trace replay), or stop closes. It
// returns the number of events produced.
//
// Rate control: the workload's arrival policy (Workload.LoadPolicy)
// yields a deterministic arrival schedule; the pacer holds the producer
// to it open-loop (it does not slow down when the SUT lags — a stalled
// producer catches up, owing at most loadgen.MaxScheduleDebt). A
// saturating policy emits as fast as it can.
func (p *InputProducer) Run(stop <-chan struct{}) (int, error) {
	pool := newSamplePool(p.w, p.dataset, p.codec)
	batchCap := p.w.producerBatch
	if batchCap <= 0 {
		batchCap = 64
	}
	// linger bounds how long a pending batch may age before it is sent
	// even if not full, like Kafka's linger.ms ceiling.
	const linger = 5 * time.Millisecond
	mEvents := p.Metrics.Counter("producer.events")
	mBytes := p.Metrics.Counter("producer.bytes")
	mBatches := p.Metrics.Counter("producer.batches")
	mOffered := p.Metrics.Gauge("loadgen.offered_rps")
	mSchedLag := p.Metrics.Gauge("loadgen.schedule_lag_ns")

	sched, err := p.w.loadPolicy().Schedule()
	if err != nil {
		return 0, fmt.Errorf("core: producer: %w", err)
	}
	pacer := loadgen.NewPacer(sched, p.Clock)
	lastFlush := time.Now()
	pending := make([]broker.Record, 0, batchCap)
	flush := func() error {
		lastFlush = time.Now()
		if len(pending) == 0 {
			return nil
		}
		bytes := 0
		for i := range pending {
			bytes += len(pending[i].Value)
		}
		if _, _, err := p.prod.SendBatch(pending); err != nil {
			return fmt.Errorf("core: producer: %w", err)
		}
		mEvents.Add(int64(len(pending)))
		mBytes.Add(int64(bytes))
		mBatches.Inc()
		p.mu.Lock()
		p.produced += len(pending)
		p.mu.Unlock()
		pending = pending[:0]
		return nil
	}

	start := pacer.Start()
	deadline := start.Add(p.w.Duration)
	var id int64
	for {
		select {
		case <-stop:
			err := flush()
			return p.Produced(), err
		default:
		}
		if time.Now().After(deadline) {
			err := flush()
			return p.Produced(), err
		}
		if p.w.MaxEvents > 0 && p.Produced()+len(pending) >= p.w.MaxEvents {
			err := flush()
			return p.Produced(), err
		}
		if p.Gate != nil {
			// Closed-loop issue control: everything pending must reach
			// the broker before we wait, or the completions the gate
			// waits for could never happen.
			if err := flush(); err != nil {
				return p.Produced(), err
			}
			if !p.Gate(int(id)) {
				return p.Produced(), nil
			}
		}
		wait, lag, rate, ok := pacer.Tick()
		if !ok {
			// Trace replay exhausted its arrivals.
			err := flush()
			return p.Produced(), err
		}
		if wait > 0 {
			// When the next event is not yet due, flush what we have
			// (linger.ms = 0) before waiting.
			if err := flush(); err != nil {
				return p.Produced(), err
			}
			if !pacer.Sleep(wait, stop) {
				return p.Produced(), nil
			}
		}
		// How far the open-loop generator trails its schedule — nonzero
		// means the producer (not the SUT) is the bottleneck at this
		// offered rate.
		mSchedLag.Set(int64(lag))
		mOffered.Set(int64(rate))
		value, created, err := pool.record(id)
		if err != nil {
			return p.Produced(), fmt.Errorf("core: producer: %w", err)
		}
		pending = append(pending, broker.Record{Value: value, Timestamp: time.Unix(0, created)})
		if len(pending) >= batchCap || time.Since(lastFlush) >= linger {
			if err := flush(); err != nil {
				return p.Produced(), err
			}
		}
		id++
	}
}

// poolBudget bounds the encoded records a samplePool keeps: a few hundred
// FFNN samples, a few dozen ResNet ones, and never fewer than one.
const poolBudget = 2 << 20

// samplePool is the producer's sample library. Like MLPerf LoadGen's, it
// draws and formats a sample once and indexes into memory after that:
// event id carries sample id mod P. A slot holds its sample decoded from
// the sample's own record, so the codec writes every later event as a
// new header around the retained inputs (DataBatch.wire) and converts no
// float. Slots fill on first use, in id order, inside Run and not in
// set-up, until they hold poolBudget bytes; P is the count that did.
//
// Apart from created_ns, the id-th record is byte for byte what
// formatting the generator's id-th batch gives — for id < P, and with a
// dataset for every id: slot k is then the dataset's k-th batch (the
// dataset cycles after len(Points) events), and a batch past the budget
// is formatted at every use.
type samplePool struct {
	codec  BatchCodec
	gen    *dataGenerator
	period int64 // a dataset's cycle in events; 0 for synthetic samples
	slots  []*DataBatch
	held   int  // encoded bytes behind slots
	full   bool // no slot is added any more
}

func newSamplePool(w Workload, ds *dataset, codec BatchCodec) *samplePool {
	pool := &samplePool{codec: codec, gen: newDataGenerator(w)}
	if ds != nil {
		pool.gen.dataset = ds
		pool.period = int64(len(ds.Points))
	}
	return pool
}

// record encodes the id-th event, created now, and returns its value and
// creation time. Ids must arrive in order from 0.
func (p *samplePool) record(id int64) ([]byte, int64, error) {
	k := id
	switch {
	case p.period > 0:
		k = id % p.period
	case p.full:
		k = id % int64(len(p.slots))
	}
	if k < int64(len(p.slots)) {
		b := p.slots[k]
		b.ID, b.CreatedNanos = id, time.Now().UnixNano()
		value, err := p.codec.Marshal(b)
		return value, b.CreatedNanos, err
	}
	b := p.gen.next(id)
	value, err := p.codec.Marshal(b)
	if err != nil {
		return nil, 0, err
	}
	if !p.full && k == int64(len(p.slots)) {
		// The slot decodes its own copy; value goes to the broker.
		slot, err := p.codec.Unmarshal(bytes.Clone(value))
		if err != nil {
			return nil, 0, err
		}
		p.slots = append(p.slots, slot)
		p.held += len(value)
		p.full = p.held >= poolBudget || int64(len(p.slots)) == p.period
	}
	return value, b.CreatedNanos, nil
}

// dataGenerator produces deterministic tensor-like synthetic data points
// of the configured shape (§4.1 "Synthetic Input Data").
type dataGenerator struct {
	w       Workload
	rng     *rand.Rand
	buf     []float32
	dataset *dataset
}

func newDataGenerator(w Workload) *dataGenerator {
	return &dataGenerator{
		w:   w,
		rng: rand.New(rand.NewSource(w.Seed)),
		buf: make([]float32, w.BatchSize*w.pointLen()),
	}
}

// next builds the id-th batch. The returned batch owns a fresh inputs
// slice (the scratch buffer is only used to amortise RNG work).
func (g *dataGenerator) next(id int64) *DataBatch {
	if g.dataset != nil {
		return &DataBatch{
			ID:           id,
			CreatedNanos: time.Now().UnixNano(),
			Count:        g.w.BatchSize,
			Inputs:       g.dataset.batchAt(id, g.w.BatchSize),
		}
	}
	for i := range g.buf {
		g.buf[i] = g.rng.Float32()
	}
	inputs := make([]float32, len(g.buf))
	copy(inputs, g.buf)
	return &DataBatch{
		ID:           id,
		CreatedNanos: time.Now().UnixNano(),
		Count:        g.w.BatchSize,
		Inputs:       inputs,
	}
}
