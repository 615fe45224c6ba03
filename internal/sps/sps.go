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
// The engines differ only in how they move records. What a running job
// does besides — stopping and joining its operators, keeping its first
// error, polling a source, scoring a record set, splitting partitions
// over sources — is the one Running every engine's job embeds.
//
// Concurrency contract: engines invoke JobSpec.Transform from mp
// parallel operator instances, so transforms must be safe for concurrent
// use; an instance that scores whole polled record sets does so through
// a Submitter of its own. Job.Stop and Job.Err may be called from any
// goroutine. When JobSpec.Metrics is set, the scoring operator is
// instrumented uniformly across engines (sps.score.* metrics, recorded
// lock-free; see docs/OBSERVABILITY.md) and each engine additionally
// counts its source and sink records.
package sps

import (
	"errors"
	"fmt"
	"sort"
	"sync"
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
// parameter and the scoring operator's parallelism; Source and Sink
// override it for operator-level parallelism experiments (Figure 12's
// flink[32-N-32]).
type Parallelism struct {
	Default int
	Source  int
	Sink    int
}

// normalize fills zero fields from Default and validates the result.
func (p Parallelism) normalize() (Parallelism, error) {
	if p.Default <= 0 {
		p.Default = 1
	}
	if p.Source == 0 {
		p.Source = p.Default
	}
	if p.Sink == 0 {
		p.Sink = p.Default
	}
	if p.Source < 0 || p.Sink < 0 {
		return p, fmt.Errorf("sps: negative parallelism %+v", p)
	}
	return p, nil
}

// Uniform reports whether all three operators share one parallelism, the
// condition under which engines chain operators.
func (p Parallelism) Uniform() bool {
	return p.Source == p.Default && p.Default == p.Sink
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

	// batcher is built by Validate when Batching is set; Running.Stop
	// closes it once the operators have drained.
	batcher *batching.Batcher
	// score holds the sps.score.* instruments when Metrics is set.
	score *scoreMetrics
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
		s.score = newScoreMetrics(s.Metrics)
		s.Transform = s.score.instrument(s.Transform)
	}
	var err error
	s.Parallelism, err = s.Parallelism.normalize()
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

// scoreMetrics are the scoring operator's live telemetry: call and
// error counts plus a per-record latency histogram. The latency
// includes the operator's full work — batch decode, inference, and
// re-encode — so comparing sps.score.latency_ns against
// serving.score.latency_ns isolates the serialisation cost.
type scoreMetrics struct {
	calls, errs *telemetry.Counter
	lat         *telemetry.Histogram
}

func newScoreMetrics(reg *telemetry.Registry) *scoreMetrics {
	return &scoreMetrics{
		calls: reg.Counter("sps.score.calls"),
		errs:  reg.Counter("sps.score.errors"),
		lat:   reg.Histogram("sps.score.latency_ns"),
	}
}

// instrument wraps the per-record transform.
func (m *scoreMetrics) instrument(t Transform) Transform {
	return func(value []byte) ([]byte, error) {
		start := time.Now()
		out, err := t(value)
		m.lat.RecordSince(start)
		m.calls.Inc()
		if err != nil {
			m.errs.Inc()
		}
		return out, err
	}
}

// recordSet books a record set scored in one submission: every record
// was in the operator for the submission's whole duration d.
func (m *scoreMetrics) recordSet(d time.Duration, errs []error) {
	if m == nil {
		return
	}
	m.calls.Add(int64(len(errs)))
	for _, err := range errs {
		m.lat.Record(int64(d))
		if err != nil {
			m.errs.Inc()
		}
	}
}

// Submitter is one operator instance's way into the scoring operator
// for the record sets it polls. With batching on it is registered with
// the micro-batcher, so an open batch that holds the tails of every
// instance's submission ships without waiting out the linger. One
// goroutine uses a Submitter at a time.
type Submitter struct {
	transform  Transform
	batcher    *batching.Batcher
	score      *scoreMetrics
	par        int
	deregister func()
}

// Submitter returns the handle for one operator instance whose own
// parallelism is par: without batching a record set is scored on up to
// par goroutines, with it the batches a set cuts flush on up to par.
// Validate must have run.
func (s *JobSpec) Submitter(par int) *Submitter {
	h := &Submitter{transform: s.Transform, batcher: s.batcher, score: s.score, par: max(par, 1)}
	if h.batcher != nil {
		h.deregister = h.batcher.Register()
	}
	return h
}

// transformMany scores values, returning outputs and errors
// positionally. With batching on the set is one batcher submission
// (batching.Batcher.DoMany); without it up to par goroutines, the
// caller's among them, each score every par-th record in turn.
func (h *Submitter) transformMany(values [][]byte) ([][]byte, []error) {
	if h.batcher != nil {
		start := time.Now()
		outs, errs := h.batcher.DoMany(values, h.par)
		h.score.recordSet(time.Since(start), errs)
		return outs, errs
	}
	outs := make([][]byte, len(values))
	errs := make([]error, len(values))
	workers := min(h.par, len(values))
	run := func(w int) {
		for i := w; i < len(values); i += workers {
			outs[i], errs[i] = h.transform(values[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	return outs, errs
}

// Close takes the instance out of the batcher's quorum; the instance
// calls it once, when it stops scoring.
func (h *Submitter) Close() {
	if h.deregister != nil {
		h.deregister()
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

// Running is the half of a running job that every engine shares: its
// validated spec, its operator goroutines and their stop, its first
// error, and the source poll, record-set scoring and partition split
// every engine runs alike. An engine's job embeds it and through it
// implements Job; the engine keeps only how it moves records.
type Running struct {
	// Spec is the validated copy of the spec the job was started with:
	// its Transform carries the retry, batching and instrumentation
	// wrappers and its Parallelism is normalised. Engines read this
	// copy, never the spec they were handed.
	Spec JobSpec

	engine           string
	stop             chan struct{}
	stopOnce         sync.Once
	ops              sync.WaitGroup
	in, out, dropped *telemetry.Counter

	mu     sync.Mutex
	err    error
	failed chan struct{} // closed by the first error
}

// Start validates spec for the named engine and returns the job's
// running half, with no operator started yet.
func Start(engine string, spec JobSpec) (*Running, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Running{
		Spec:    spec,
		engine:  engine,
		stop:    make(chan struct{}),
		in:      spec.Metrics.Counter("sps.source.records"),
		out:     spec.Metrics.Counter("sps.sink.records"),
		dropped: spec.Metrics.Counter("sps.score.dropped"),
		failed:  make(chan struct{}),
	}, nil
}

// Go runs one operator on its own goroutine; Stop joins it.
func (r *Running) Go(operator func()) {
	r.ops.Add(1)
	go func() {
		defer r.ops.Done()
		operator()
	}()
}

// Stopping returns the channel Stop closes: operators select on it to
// end, and park on it as the cancel of a blocking call.
func (r *Running) Stopping() <-chan struct{} { return r.stop }

// Stop implements Job: it closes the stop channel once, joins every
// operator, then flushes and joins the micro-batcher, and returns the
// job's first error.
func (r *Running) Stop() error {
	r.stopOnce.Do(func() { close(r.stop) })
	r.ops.Wait()
	if r.Spec.batcher != nil {
		r.Spec.batcher.Close()
	}
	return r.Err()
}

// Err implements Job.
func (r *Running) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// ErrSignal implements Job.
func (r *Running) ErrSignal() <-chan struct{} { return r.failed }

// Fail records err, failed at the named stage, as the job's error if it
// is the first; a nil err is ignored. The error reads
// "<engine>: <stage>: <err>".
func (r *Running) Fail(stage string, err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = fmt.Errorf("%s: %s: %w", r.engine, stage, err)
		close(r.failed)
	}
}

// Poll is one source operator's fetch: up to max records from c,
// parked at the broker for up to broker.FetchMaxWait at a time and
// polling again while nothing arrives. Stop cuts the park short. The
// records count on sps.source.records. It reports false once the job
// is stopping or the poll failed, the failure being the job's "source"
// error.
func (r *Running) Poll(c *broker.Consumer, max int) ([]broker.Record, bool) {
	for {
		select {
		case <-r.stop:
			return nil, false
		default:
		}
		recs, err := c.Poll(max, broker.FetchMaxWait, r.stop)
		if err != nil {
			r.Fail("source", err)
			return nil, false
		}
		if len(recs) > 0 {
			r.Polled(len(recs))
			return recs, true
		}
	}
}

// Polled counts n records a source operator fetched by other means than
// Poll.
func (r *Running) Polled(n int) { r.in.Add(int64(n)) }

// Score scores a polled record set through the operator instance's
// Submitter and hands each scored value to emit, in order. A record the
// transform failed is dropped: it is the job's "scoring" error and
// counts on sps.score.dropped.
func (r *Running) Score(sub *Submitter, values [][]byte, emit func(scored []byte)) {
	outs, errs := sub.transformMany(values)
	for i, err := range errs {
		if r.scored(err) {
			emit(outs[i])
		}
	}
}

// ScoreOne is Score for an operator that submits record by record,
// outside any Submitter: ok is false for a dropped record.
func (r *Running) ScoreOne(value []byte) (scored []byte, ok bool) {
	scored, err := r.Spec.Transform(value)
	return scored, r.scored(err)
}

// scored reports whether a record's scoring succeeded, dropping it
// otherwise.
func (r *Running) scored(err error) bool {
	if err == nil {
		return true
	}
	r.Fail("scoring", err)
	r.dropped.Inc()
	return false
}

// Sent books n records a sink operator handed to its producer in one
// call: they count on sps.sink.records, or, when the call failed, they
// are dropped and err is the job's "sink" error.
func (r *Running) Sent(n int, err error) {
	if err != nil {
		r.Fail("sink", err)
		r.dropped.Add(int64(n))
		return
	}
	r.out.Add(int64(n))
}

// Sources spreads the input partitions over n source operators and
// builds an assigned consumer for each that owns any: operators beyond
// the partition count get none. On failure it closes what it built.
func (r *Running) Sources(n int) ([]*broker.Consumer, error) {
	parts, err := r.Spec.Transport.Partitions(r.Spec.InputTopic)
	if err != nil {
		return nil, err
	}
	split := make([][]int, min(n, parts))
	for p := 0; p < parts; p++ {
		split[p%len(split)] = append(split[p%len(split)], p)
	}
	consumers := make([]*broker.Consumer, 0, len(split))
	for _, owned := range split {
		c, err := broker.NewAssignedConsumer(r.Spec.Transport, r.Spec.InputTopic, owned...)
		if err != nil {
			for _, c := range consumers {
				_ = c.Close()
			}
			return nil, err
		}
		consumers = append(consumers, c)
	}
	return consumers, nil
}
