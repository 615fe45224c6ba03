// Package sps defines the stream-processor adapter SPI from §3.2 of the
// paper. Any event-based engine that can run the three-operator DAG —
// inputOp (broker source), scoringOp (inference transform), outputOp
// (broker sink) — and can set the parallelism of its computation plugs in
// as a Processor.
//
// The four engines the paper evaluates live in the subpackages flink
// (push-based, pipelined), kstreams (pull-based), sparkss (micro-batch),
// and ray (actor-based).
//
// Concurrency contract: engines invoke JobSpec.Transform from mp
// parallel operator instances, so transforms must be safe for concurrent
// use; Job.Stop and Job.Err may be called from any goroutine. When
// JobSpec.Metrics is set, the scoring operator is instrumented uniformly
// across engines (sps.score.* metrics, recorded lock-free; see
// docs/OBSERVABILITY.md) and each engine additionally counts its source
// and sink records.
package sps

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crayfish/internal/batching"
	"crayfish/internal/broker"
	"crayfish/internal/resilience"
	"crayfish/internal/telemetry"
)

// Transform is the scoring operator's logic: it maps one record value (a
// serialized CrayfishDataBatch) to its scored value. Implementations must
// be safe for concurrent use; engines invoke the transform from mp
// parallel operator instances.
type Transform func(value []byte) ([]byte, error)

// BatchTransform is the scoring operator's multi-record fast path: it
// maps several record values to their scored values positionally in one
// scorer invocation (out[i] belongs to values[i], and implementations
// must return exactly len(values) outputs on success). It is driven by
// the dynamic micro-batcher when JobSpec.Batching is set; an error
// fails the whole invocation, after which the batcher isolates failures
// per record through the single-record Transform. Implementations must
// be safe for concurrent use.
type BatchTransform func(values [][]byte) ([][]byte, error)

// Parallelism configures operator scaling. Default is the paper's mp
// parameter; the per-operator fields override it for operator-level
// parallelism experiments (Figure 12's flink[32-N-32]).
type Parallelism struct {
	Default int
	Source  int
	Score   int
	Sink    int
}

// Normalize fills zero fields from Default and validates the result.
func (p Parallelism) Normalize() (Parallelism, error) {
	if p.Default <= 0 {
		p.Default = 1
	}
	if p.Source == 0 {
		p.Source = p.Default
	}
	if p.Score == 0 {
		p.Score = p.Default
	}
	if p.Sink == 0 {
		p.Sink = p.Default
	}
	if p.Source < 0 || p.Score < 0 || p.Sink < 0 {
		return p, fmt.Errorf("sps: negative parallelism %+v", p)
	}
	return p, nil
}

// Uniform reports whether all three operators share one parallelism, the
// condition under which engines chain operators.
func (p Parallelism) Uniform() bool {
	return p.Source == p.Score && p.Score == p.Sink
}

// JobSpec describes one streaming-inference job.
type JobSpec struct {
	// Transport is the broker connection (in-process or TCP).
	Transport broker.Transport
	// InputTopic and OutputTopic are the Crayfish Kafka topics.
	InputTopic  string
	OutputTopic string
	// Group is the consumer group the source operators join.
	Group string
	// Transform is the scoring logic.
	Transform Transform
	// BatchTransform, when set alongside Batching, is the multi-record
	// scoring path the micro-batcher drives — one scorer invocation per
	// coalesced batch instead of one per record.
	BatchTransform BatchTransform
	// Batching, when set, coalesces concurrent scoring-operator
	// invocations into BatchTransform calls under the policy's size +
	// linger triggers (see internal/batching). Requires BatchTransform.
	Batching *batching.Policy
	// Parallelism scales the operators.
	Parallelism Parallelism
	// Retry, when set, re-runs the transform on retryable failures
	// (resilience.IsRetryable) before the engine sees the error — the
	// operator-level restart policy every real engine offers. Errors
	// that survive the policy still drop the record and surface via
	// Job.Err / sps.score.dropped.
	Retry *resilience.Retry
	// Metrics publishes live per-stage telemetry into the given
	// registry; nil disables instrumentation at near-zero cost.
	Metrics *telemetry.Registry

	// batcher is built by Validate when Batching is set; engines close
	// it via CloseBatching once their operators have drained.
	batcher *batching.Batcher
}

// Validate checks the spec's required fields.
func (s *JobSpec) Validate() error {
	if s.Transport == nil {
		return errors.New("sps: job needs a broker transport")
	}
	if s.InputTopic == "" || s.OutputTopic == "" {
		return errors.New("sps: job needs input and output topics")
	}
	if s.Transform == nil {
		return errors.New("sps: job needs a transform")
	}
	if s.Group == "" {
		s.Group = "crayfish-sps"
	}
	// Wrap order, innermost out: user transform → retry → micro-batcher
	// → instrumentation. Retry wraps inside everything so re-attempts
	// stay per record; the batcher sits inside instrumentation so
	// sps.score.calls stays per record and sps.score.latency_ns includes
	// the coalescing wait — the operator latency the AIMD SLO governs.
	if s.Retry != nil {
		s.Transform = retryTransform(s.Transform, s.Retry, s.Metrics)
	}
	if s.Batching != nil {
		if s.BatchTransform == nil {
			return errors.New("sps: Batching policy set without a BatchTransform")
		}
		b, err := batching.New(batching.Config{
			Policy:  *s.Batching,
			Batch:   batching.BatchFunc(s.BatchTransform),
			Single:  batching.SingleFunc(s.Transform),
			Metrics: s.Metrics,
		})
		if err != nil {
			return err
		}
		s.batcher = b
		s.Transform = b.Do
	}
	if s.Metrics != nil {
		s.Transform = instrumentTransform(s.Transform, s.Metrics)
	}
	var err error
	s.Parallelism, err = s.Parallelism.Normalize()
	return err
}

// retryTransform wraps the scoring operator in the job's retry policy.
// Only errors marked retryable (transient scorer faults, daemon
// unavailability) are re-attempted; application errors pass through on
// the first try. Each re-attempt beyond the first increments
// sps.score.retries.
func retryTransform(t Transform, r *resilience.Retry, reg *telemetry.Registry) Transform {
	retries := reg.Counter("sps.score.retries")
	return func(value []byte) ([]byte, error) {
		var out []byte
		attempts := 0
		err := r.Do(func() error {
			attempts++
			var opErr error
			out, opErr = t(value)
			return opErr
		})
		if attempts > 1 {
			retries.Add(int64(attempts - 1))
		}
		return out, err
	}
}

// instrumentTransform wraps the scoring operator with live telemetry:
// call and error counts plus a per-call latency histogram. The latency
// includes the operator's full work — batch decode, inference, and
// re-encode — so comparing sps.score.latency_ns against
// serving.score.latency_ns isolates the serialisation cost.
func instrumentTransform(t Transform, reg *telemetry.Registry) Transform {
	calls := reg.Counter("sps.score.calls")
	errs := reg.Counter("sps.score.errors")
	lat := reg.Histogram("sps.score.latency_ns")
	return func(value []byte) ([]byte, error) {
		start := time.Now()
		out, err := t(value)
		lat.RecordSince(start)
		calls.Inc()
		if err != nil {
			errs.Inc()
		}
		return out, err
	}
}

// TransformMany runs the validated Transform over several record
// values, returning outputs and errors positionally. With batching
// enabled the calls fan out on goroutines so records polled together
// coalesce into shared scorer invocations — this is how pull-based
// engines (whose operator loop is otherwise sequential) expose the
// batching opportunity. Without batching the records run sequentially;
// spawning goroutines would buy nothing.
//
// The fan-out is MaxBatch workers pulling indices, which fills a batch
// as fast as one goroutine per record would: a micro-batch engine polls
// thousands of records at once, and the runtime keeps every goroutine
// descriptor it ever made for later collections to walk.
func (s *JobSpec) TransformMany(values [][]byte) ([][]byte, []error) {
	outs := make([][]byte, len(values))
	errs := make([]error, len(values))
	if s.batcher == nil || len(values) < 2 {
		for i, v := range values {
			outs[i], errs[i] = s.Transform(v)
		}
		return outs, errs
	}
	workers := min(s.Batching.WithDefaults().MaxBatch, len(values))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(values); i = int(next.Add(1)) - 1 {
				outs[i], errs[i] = s.Transform(values[i])
			}
		}()
	}
	wg.Wait()
	return outs, errs
}

// CloseBatching flushes and joins the micro-batcher, if Validate built
// one. Engines call it from Stop after their operator goroutines have
// drained; it is nil-safe and idempotent.
func (s *JobSpec) CloseBatching() {
	if s.batcher != nil {
		s.batcher.Close()
	}
}

// StageCounters are the engine-side source/sink record counters every
// engine publishes. Resolve them once per job with Stages.
type StageCounters struct {
	// In counts records the source operators polled from the broker.
	In *telemetry.Counter
	// Out counts records the sink operators handed to the producer.
	Out *telemetry.Counter
	// Dropped counts records abandoned after a transform or sink
	// failure — the at-least-once loss ledger the recovery scenario
	// audits against.
	Dropped *telemetry.Counter
}

// Stages resolves the per-stage counters from the spec's registry. With
// telemetry disabled the returned handles are nil and counting is a
// no-op.
func (s *JobSpec) Stages() StageCounters {
	return StageCounters{
		In:      s.Metrics.Counter("sps.source.records"),
		Out:     s.Metrics.Counter("sps.sink.records"),
		Dropped: s.Metrics.Counter("sps.score.dropped"),
	}
}

// Job is a running streaming job.
type Job interface {
	// Stop halts ingestion, drains in-flight records, and releases
	// resources. It is idempotent.
	Stop() error
	// Err returns the first asynchronous failure observed by any
	// operator, or nil.
	Err() error
	// ErrSignal returns a channel that is closed when the first
	// asynchronous failure is recorded, so callers can block on
	// failure instead of polling Err.
	ErrSignal() <-chan struct{}
}

// Processor is a stream-processing engine adapter.
type Processor interface {
	// Name identifies the engine ("flink", "kafka-streams", ...).
	Name() string
	// Run starts the I→S→O job described by spec.
	Run(spec JobSpec) (Job, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]func() Processor{}
)

// Register installs an engine factory under a name. Engine subpackages
// call it from init.
func Register(name string, factory func() Processor) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sps: duplicate engine %q", name))
	}
	registry[name] = factory
}

// New instantiates a registered engine.
func New(name string) (Processor, error) {
	regMu.RLock()
	factory, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sps: unknown engine %q (known: %v)", name, Names())
	}
	return factory(), nil
}

// Names lists registered engines in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ErrTracker collects the first asynchronous error from a job's operator
// goroutines. The zero value is ready to use.
type ErrTracker struct {
	mu  sync.Mutex
	err error
	ch  chan struct{}
}

// Set records err if it is the first non-nil error and wakes anyone
// blocked on Signal.
func (e *ErrTracker) Set(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil {
		e.err = err
		if e.ch != nil {
			close(e.ch)
		}
	}
}

// Signal returns a channel that is closed once the first error is
// recorded, so callers can select on failure instead of polling Get.
func (e *ErrTracker) Signal() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ch == nil {
		e.ch = make(chan struct{})
		if e.err != nil {
			close(e.ch)
		}
	}
	return e.ch
}

// Get returns the recorded error.
func (e *ErrTracker) Get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
