package broker

import (
	"fmt"
	"sync"
	"time"
)

// AsyncProducer batches record sends through a dedicated sender goroutine,
// the way Kafka's producer client does: callers enqueue records and the
// sender ships whatever has accumulated in one broker call. At low rates
// every record ships immediately (the queue is empty, so the batch is 1 —
// linger.ms = 0 semantics); at saturation the in-flight send naturally
// accumulates a batch behind it, amortising the network round trip.
type AsyncProducer struct {
	p     *Producer
	queue chan Record

	mu     sync.Mutex
	err    error
	closed bool

	flushMu sync.Mutex // serialises Flush against the sender
	pending sync.WaitGroup
	done    chan struct{}
}

// maxSendBatch caps one batched broker call.
const maxSendBatch = 128

// NewAsyncProducer creates a batching producer for one topic. queueDepth
// bounds buffered records (backpressure point); zero means 256.
func NewAsyncProducer(t Transport, topic string, queueDepth int) (*AsyncProducer, error) {
	p, err := NewProducer(t, topic)
	if err != nil {
		return nil, err
	}
	if queueDepth <= 0 {
		queueDepth = 256
	}
	ap := &AsyncProducer{
		p:     p,
		queue: make(chan Record, queueDepth),
		done:  make(chan struct{}),
	}
	//lint:allow gorolifecycle sender is joined via the done channel in Close
	go ap.sender()
	return ap, nil
}

// Send enqueues one record value, blocking when the queue is full
// (producer-side backpressure). It returns any asynchronous send error
// observed so far.
func (ap *AsyncProducer) Send(value []byte) error {
	//lint:allow clockdiscipline client-side CreateTime stamp, not on the measured path
	return ap.sendRecord(Record{Value: value, Timestamp: time.Now()})
}

// sendRecord enqueues a record with explicit metadata.
func (ap *AsyncProducer) sendRecord(rec Record) error {
	ap.mu.Lock()
	if ap.closed {
		ap.mu.Unlock()
		return errClosed
	}
	err := ap.err
	ap.pending.Add(1)
	ap.mu.Unlock()
	if err != nil {
		ap.pending.Done()
		return err
	}
	ap.queue <- rec
	return nil
}

// Flush blocks until every record enqueued before the call has been
// shipped to the broker.
func (ap *AsyncProducer) Flush() error {
	ap.pending.Wait()
	ap.mu.Lock()
	defer ap.mu.Unlock()
	return ap.err
}

// Close flushes and stops the sender. Further sends fail with errClosed.
func (ap *AsyncProducer) Close() error {
	ap.mu.Lock()
	if ap.closed {
		ap.mu.Unlock()
		return nil
	}
	ap.closed = true
	ap.mu.Unlock()
	ap.pending.Wait()
	close(ap.queue)
	<-ap.done
	ap.mu.Lock()
	defer ap.mu.Unlock()
	return ap.err
}

// sender is the background sending loop: take one record, opportunistically
// drain more, ship them as one batch.
func (ap *AsyncProducer) sender() {
	defer close(ap.done)
	batch := make([]Record, 0, maxSendBatch)
	for rec := range ap.queue {
		batch = append(batch[:0], rec)
	drain:
		for len(batch) < maxSendBatch {
			select {
			case more, ok := <-ap.queue:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		if _, _, err := ap.p.SendBatch(batch); err != nil {
			ap.mu.Lock()
			if ap.err == nil {
				ap.err = fmt.Errorf("broker: async producer: %w", err)
			}
			ap.mu.Unlock()
		}
		for range batch {
			ap.pending.Done()
		}
	}
}
