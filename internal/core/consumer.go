package core

import (
	"fmt"
	"sync"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/telemetry"
)

// Sample is one end-to-end measurement: a scored batch with its start
// (producer-side creation) and end (broker-side LogAppendTime on the
// output topic) timestamps.
type Sample struct {
	ID      int64
	Start   time.Time
	End     time.Time
	Latency time.Duration
}

// OutputConsumer is the Crayfish output consumer component (§3.1): it
// reads scored batches from the output topic and extracts per-batch
// end-to-end latencies, keeping measurement logic outside the SUT
// (SUT separation, §3.5).
type OutputConsumer struct {
	codec    BatchCodec
	consumer *broker.Consumer

	// Metrics, when set before Run, publishes live end-to-end telemetry
	// (consumer.*; see docs/OBSERVABILITY.md).
	Metrics *telemetry.Registry

	mSamples *telemetry.Counter
	mDupes   *telemetry.Counter
	mE2E     *telemetry.Histogram

	mu      sync.Mutex
	samples []Sample
	decoded map[int64]bool
	dupes   int
	// changed is non-nil while a WaitForCount caller is blocked; the next
	// sample closes and clears it, so open-loop runs, which never wait,
	// pay nothing per sample.
	changed chan struct{}
}

// NewOutputConsumer builds a consumer over all partitions of topic.
func NewOutputConsumer(t broker.Transport, topic string, codec BatchCodec) (*OutputConsumer, error) {
	if codec == nil {
		codec = JSONCodec{}
	}
	c, err := broker.NewAssignedConsumer(t, topic)
	if err != nil {
		return nil, err
	}
	return &OutputConsumer{codec: codec, consumer: c, decoded: make(map[int64]bool)}, nil
}

// Run polls the output topic, parked at the broker while it is quiet,
// until stop closes, then drains whatever is left and returns.
func (oc *OutputConsumer) Run(stop <-chan struct{}) error {
	oc.mSamples = oc.Metrics.Counter("consumer.samples")
	oc.mDupes = oc.Metrics.Counter("consumer.duplicates")
	oc.mE2E = oc.Metrics.Histogram("consumer.e2e_latency_ns")
	for {
		select {
		case <-stop:
			return oc.drain()
		default:
		}
		if _, err := oc.pollOnce(broker.FetchMaxWait, stop); err != nil {
			return err
		}
	}
}

// drain consumes everything still in the topic after producers stopped.
func (oc *OutputConsumer) drain() error {
	for {
		n, err := oc.pollOnce(0, nil)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
	}
}

func (oc *OutputConsumer) pollOnce(wait time.Duration, cancel <-chan struct{}) (int, error) {
	recs, err := oc.consumer.Poll(256, wait, cancel)
	if err != nil {
		return 0, fmt.Errorf("core: output consumer: %w", err)
	}
	for _, rec := range recs {
		id, createdNanos, err := stamp(oc.codec, rec.Value)
		if err != nil {
			return 0, fmt.Errorf("core: output consumer: %w", err)
		}
		oc.record(id, createdNanos, rec.AppendTime)
	}
	return len(recs), nil
}

func (oc *OutputConsumer) record(id, createdNanos int64, end time.Time) {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if oc.decoded[id] {
		oc.dupes++
		oc.mDupes.Inc()
		return
	}
	oc.decoded[id] = true
	start := time.Unix(0, createdNanos)
	lat := end.Sub(start)
	oc.samples = append(oc.samples, Sample{
		ID:      id,
		Start:   start,
		End:     end,
		Latency: lat,
	})
	oc.mSamples.Inc()
	oc.mE2E.Record(int64(lat))
	if oc.changed != nil {
		close(oc.changed)
		oc.changed = nil
	}
}

// Samples returns the collected measurements in arrival order.
func (oc *OutputConsumer) Samples() []Sample {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return append([]Sample(nil), oc.samples...)
}

// SampleCount returns how many distinct samples were recorded so far.
func (oc *OutputConsumer) SampleCount() int {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return len(oc.samples)
}

// WaitForCount blocks until at least n samples were recorded or the
// deadline passes, reporting whether the count was reached. It backs the
// closed-loop scenarios' issue-on-completion gate.
func (oc *OutputConsumer) WaitForCount(n int, deadline time.Time) bool {
	for {
		oc.mu.Lock()
		have := len(oc.samples)
		if have < n && oc.changed == nil {
			// Registered under the lock record takes, so a sample landing
			// from here on finds the channel and closes it.
			oc.changed = make(chan struct{})
		}
		ch := oc.changed
		oc.mu.Unlock()
		if have >= n {
			return true
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return false
		}
		select {
		case <-ch:
		case <-time.After(wait):
			return false
		}
	}
}

// waitForSamples polls until n samples were recorded or the deadline
// passes, reporting whether the count was reached: the runners' drain
// wait. It polls SampleCount every millisecond rather than blocking in
// WaitForCount, whose wake-up per sample costs more than the poll.
func (oc *OutputConsumer) waitForSamples(n int, deadline time.Time) bool {
	for time.Now().Before(deadline) {
		if oc.SampleCount() >= n {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// Duplicates reports how many duplicate batch IDs were observed.
func (oc *OutputConsumer) Duplicates() int {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return oc.dupes
}
