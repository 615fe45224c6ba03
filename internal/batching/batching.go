// Package batching implements the dynamic micro-batcher behind the
// scoring operator's batch-dimension lever (§4, Figures 6–9 of the
// paper): concurrent per-record transform invocations — arriving from
// any number of source partitions and operator instances — are
// coalesced into one multi-record scorer call, then demultiplexed back
// to per-record results that are byte-identical to the unbatched path.
//
// A batch is cut by whichever trigger fires first:
//
//   - size: the pending batch reaches the current target size, and the
//     request that completed it flushes synchronously (leader flush);
//   - quorum: every registered submitter (Register) is parked on the
//     open batch, so no record could join it before the linger ran
//     out — it ships at once, with the members the linger would have
//     cut;
//   - linger: the batch's oldest request has waited Policy.Linger, and
//     the batch ships partially filled so latency stays bounded at low
//     rates.
//
// A submitter counts toward the quorum only while the tail of its
// DoMany submission sits in the open batch; one parked on a batch that
// was already cut can come back with more records, so it does not
// count. Plain Do callers are never counted: with no registered
// submitter the batcher cuts by size and linger alone.
//
// With Policy.SLO set, an AIMD controller tunes the target size per
// engine×serving combination: while the observed p95 request latency
// (enqueue → scored) stays at or under the SLO the target grows by one
// per observation window (additive increase); a breach halves it
// (multiplicative decrease). Without an SLO the target is fixed at
// Policy.MaxBatch.
//
// Time is virtual-clock-disciplined like the broker: every wall-clock
// read and linger wait goes through an injectable Clock, so tests drive
// the triggers deterministically and the crayfishlint clockdiscipline
// analyzer covers this package.
//
// Concurrency contract: Do is safe for concurrent use from any number
// of goroutines (that concurrency is the batching opportunity), and so
// is DoMany across registrations, with at most one DoMany in flight per
// registration. Close flushes the open batch and joins every linger
// watcher; no Do or DoMany calls may start after Close.
package batching

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"crayfish/internal/telemetry"
)

// BatchFunc scores several record values in one invocation. Outputs are
// positional: out[i] is the scored form of values[i], and implementations
// must return exactly len(values) outputs on success. An error fails the
// whole invocation; the batcher then isolates failures by re-running
// each record through the single-record fallback.
type BatchFunc func(values [][]byte) ([][]byte, error)

// SingleFunc scores one record value — the unbatched fallback used to
// isolate per-record failures when a whole-batch invocation errors.
type SingleFunc func(value []byte) ([]byte, error)

// errClosed is returned by Do after Close.
var errClosed = errors.New("batching: batcher closed")

// Policy configures the dynamic batcher.
type Policy struct {
	// MaxBatch caps records per scorer invocation (the paper's bsz
	// sweep upper bound for this operator). Zero means 16.
	MaxBatch int
	// MinBatch floors the adaptive target. Zero means 1.
	MinBatch int
	// Linger bounds how long the oldest pending record waits before a
	// partial batch ships. Zero means 2ms. It must be positive: with no
	// deadline a lone record under the size target would wait forever.
	Linger time.Duration
	// SLO, when positive, enables the AIMD controller against this p95
	// request-latency target (enqueue → scored result). Zero fixes the
	// target at MaxBatch.
	SLO time.Duration
	// Window is the number of completed requests per controller
	// decision. Zero means 64.
	Window int
}

// withDefaults fills zero fields with the documented defaults.
func (p Policy) withDefaults() Policy {
	if p.MaxBatch <= 0 {
		p.MaxBatch = 16
	}
	if p.MinBatch <= 0 {
		p.MinBatch = 1
	}
	if p.MinBatch > p.MaxBatch {
		p.MinBatch = p.MaxBatch
	}
	if p.Linger <= 0 {
		p.Linger = 2 * time.Millisecond
	}
	if p.Window <= 0 {
		p.Window = 64
	}
	return p
}

// batchClock abstracts time for the batcher so tests (and deterministic
// experiments) inject a virtual clock instead of the wall clock.
type batchClock struct {
	// Now reads the current time (request enqueue/complete stamps).
	Now func() time.Time
	// After returns a channel that receives after d elapses (the
	// linger deadline).
	After func(d time.Duration) <-chan time.Time
}

// realClock is the wall-clock default used outside tests.
func realClock() batchClock {
	return batchClock{
		Now:   time.Now,   //lint:allow clockdiscipline documented default; tests inject a virtual clock
		After: time.After, //lint:allow clockdiscipline documented default linger timer; tests inject a virtual clock
	}
}

// Config assembles a Batcher.
type Config struct {
	Policy Policy
	// Batch is the multi-record scoring path (required).
	Batch BatchFunc
	// Single, when set, isolates per-record failures after a batch
	// error; records whose fallback succeeds are not dropped. Nil
	// propagates the batch error to every coalesced record.
	Single SingleFunc
	// Metrics publishes sps.batch.* telemetry (see
	// docs/OBSERVABILITY.md); nil disables it at near-zero cost.
	Metrics *telemetry.Registry
	// clock defaults to realClock.
	clock batchClock
}

// Metric names, documented in docs/OBSERVABILITY.md (SPS stage).
const (
	metricBatchSize   = "sps.batch.size"
	metricLingerFlush = "sps.batch.linger_flush"
	metricSizeFlush   = "sps.batch.size_flush"
	metricQuorumFlush = "sps.batch.quorum_flush"
	metricSubmitters  = "sps.batch.submitters"
	metricTarget      = "sps.batch.target"
)

// request is one coalesced record.
type request struct {
	value []byte
	out   []byte
	err   error
	start time.Time
}

// pending is the open batch being assembled. cut is closed when the
// batch is taken for flushing so its linger watcher stands down; done
// is closed once every request holds its result. waiters counts the
// registered submitters whose tail is in this batch.
type pending struct {
	reqs    []*request
	waiters int
	cut     chan struct{}
	done    chan struct{}
}

func newPending() *pending {
	return &pending{cut: make(chan struct{}), done: make(chan struct{})}
}

// Batcher coalesces concurrent Do calls into BatchFunc invocations.
type Batcher struct {
	policy  Policy
	batch   BatchFunc
	single  SingleFunc
	clock   batchClock
	sizeH   *telemetry.Histogram
	lingerC *telemetry.Counter
	sizeC   *telemetry.Counter
	quorumC *telemetry.Counter
	submitG *telemetry.Gauge
	targetG *telemetry.Gauge

	mu         sync.Mutex
	cur        *pending
	target     int
	registered int
	closed     bool

	stop     chan struct{} // closed by Close; wakes idle linger watchers
	watchers sync.WaitGroup
	closing  sync.Once

	// AIMD controller state: a window of completed-request latencies.
	ctlMu  sync.Mutex
	window []int64
}

// New builds a batcher. The policy is defaulted via withDefaults; the
// adaptive target starts at MinBatch (slow start) when an SLO is set,
// at MaxBatch otherwise.
func New(cfg Config) (*Batcher, error) {
	if cfg.Batch == nil {
		return nil, errors.New("batching: config needs a Batch function")
	}
	p := cfg.Policy.withDefaults()
	clock := cfg.clock
	if clock.Now == nil || clock.After == nil {
		clock = realClock()
	}
	b := &Batcher{
		policy:  p,
		batch:   cfg.Batch,
		single:  cfg.Single,
		clock:   clock,
		sizeH:   cfg.Metrics.Histogram(metricBatchSize),
		lingerC: cfg.Metrics.Counter(metricLingerFlush),
		sizeC:   cfg.Metrics.Counter(metricSizeFlush),
		quorumC: cfg.Metrics.Counter(metricQuorumFlush),
		submitG: cfg.Metrics.Gauge(metricSubmitters),
		targetG: cfg.Metrics.Gauge(metricTarget),
		stop:    make(chan struct{}),
	}
	if p.SLO > 0 {
		b.target = p.MinBatch
		b.window = make([]int64, 0, p.Window)
	} else {
		b.target = p.MaxBatch
	}
	b.targetG.Set(int64(b.target))
	b.submitG.Set(0)
	return b, nil
}

// Do submits one record value and blocks until its scored result is
// available. The caller that completes a batch flushes it on its own
// goroutine (leader flush), so several batches can be in flight at
// once; everyone else parks on their request's done channel. value is
// held only until Do returns: the flush that scores it completes
// before the request's done channel closes.
//
//lint:lent value
func (b *Batcher) Do(value []byte) ([]byte, error) {
	r := &request{value: value, start: b.clock.Now()}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, errClosed
	}
	if b.cur == nil {
		b.cur = newPending()
		b.watchers.Add(1)
		go b.lingerWatch(b.cur)
	}
	cur := b.cur
	cur.reqs = append(cur.reqs, r)
	var take *pending
	if len(cur.reqs) >= b.target {
		take = b.takeLocked()
	}
	b.mu.Unlock()
	if take != nil {
		b.sizeC.Inc()
		b.flush(take)
	}
	<-cur.done
	return r.out, r.err
}

// Register adds a submitter to the quorum: until the returned function
// deregisters it (call it once), an open batch ships the moment it holds
// the tails of every registered submitter. Deregistering can complete
// the quorum of those left, and then ships the open batch.
func (b *Batcher) Register() (deregister func()) {
	b.mu.Lock()
	b.registered++
	b.submitG.Set(int64(b.registered))
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		b.registered--
		b.submitG.Set(int64(b.registered))
		take := b.takeQuorumLocked()
		b.mu.Unlock()
		if take != nil {
			b.quorumC.Inc()
			b.flush(take)
		}
	}
}

// DoMany submits values for a registered submitter under one lock and
// blocks until every one is scored; outs[i] and errs[i] belong to
// values[i]. Full batches are cut by size as the submission fills them,
// and the rest — the tail — joins the open batch, where it counts
// toward the quorum until that batch is cut. The batches the
// submission cut are flushed here, on at most par goroutines including
// the caller's. values are held only until DoMany returns.
//
//lint:lent values
func (b *Batcher) DoMany(values [][]byte, par int) ([][]byte, []error) {
	outs := make([][]byte, len(values))
	errs := make([]error, len(values))
	reqs := make([]request, len(values))
	start := b.clock.Now()
	var cuts []*pending
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		for i := range errs {
			errs[i] = errClosed
		}
		return outs, errs
	}
	opened := false // whether the open batch was opened in this critical section
	for i, v := range values {
		if b.cur == nil {
			b.cur, opened = newPending(), true
		}
		reqs[i] = request{value: v, start: start}
		b.cur.reqs = append(b.cur.reqs, &reqs[i])
		if len(b.cur.reqs) >= b.target {
			cuts = append(cuts, b.takeLocked())
		}
	}
	sized := len(cuts)
	var tail *pending // nil when the submission ended on a full batch
	if len(values) > 0 && b.cur != nil {
		tail = b.cur
		tail.waiters++
		if q := b.takeQuorumLocked(); q != nil {
			cuts = append(cuts, q)
		} else if opened {
			b.watchers.Add(1)
			go b.lingerWatch(tail)
		}
	}
	b.mu.Unlock()
	b.sizeC.Add(int64(sized))
	b.quorumC.Add(int64(len(cuts) - sized))
	b.flushAll(cuts, par)
	if tail != nil {
		<-tail.done
	}
	for i := range reqs {
		outs[i], errs[i] = reqs[i].out, reqs[i].err
	}
	return outs, errs
}

// takeLocked detaches the open batch for flushing. Callers hold b.mu.
func (b *Batcher) takeLocked() *pending {
	take := b.cur
	b.cur = nil
	close(take.cut)
	return take
}

// takeQuorumLocked detaches the open batch if every registered
// submitter is waiting on it. Callers hold b.mu.
func (b *Batcher) takeQuorumLocked() *pending {
	if b.cur == nil || b.registered == 0 || b.cur.waiters < b.registered {
		return nil
	}
	return b.takeLocked()
}

// flushAll flushes batches on at most par goroutines, the caller's
// among them, and returns once all of them are done.
func (b *Batcher) flushAll(batches []*pending, par int) {
	workers := min(max(par, 1), len(batches))
	run := func(w int) {
		for i := w; i < len(batches); i += workers {
			b.flush(batches[i])
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
}

// lingerWatch enforces the linger deadline for one batch: if the batch
// is still open when the deadline passes, it ships partially filled.
func (b *Batcher) lingerWatch(p *pending) {
	defer b.watchers.Done()
	select {
	case <-b.clock.After(b.policy.Linger):
	case <-p.cut:
		return // cut by the size or quorum trigger or Close; they flush it
	case <-b.stop:
		return // Close drains the open batch itself
	}
	b.mu.Lock()
	var take *pending
	if b.cur == p {
		take = b.takeLocked()
	}
	b.mu.Unlock()
	if take != nil {
		b.lingerC.Inc()
		b.flush(take)
	}
}

// flush runs the batch function over the coalesced values and hands
// each request its result. A batch-level failure (error or output
// count mismatch) falls back to scoring each record alone, so only the
// records that actually fail surface errors — partial-batch faults
// drop just their own records.
func (b *Batcher) flush(p *pending) {
	values := make([][]byte, len(p.reqs))
	for i, r := range p.reqs {
		values[i] = r.value
	}
	b.sizeH.Record(int64(len(values)))
	outs, err := b.batch(values)
	if err == nil && len(outs) != len(values) {
		err = fmt.Errorf("batching: batch transform returned %d outputs for %d inputs", len(outs), len(values))
	}
	if err != nil {
		for _, r := range p.reqs {
			if b.single != nil {
				r.out, r.err = b.single(r.value)
			} else {
				r.err = err
			}
		}
	} else {
		for i, r := range p.reqs {
			r.out = outs[i]
		}
	}
	if b.policy.SLO > 0 {
		b.observe(p.reqs)
	}
	close(p.done)
}

// observe feeds completed-request latencies to the AIMD controller.
// Every full window it compares the window's p95 against the SLO:
// under (or at) the target grows the batch size by one, a breach
// halves it, both clamped to [MinBatch, MaxBatch].
func (b *Batcher) observe(reqs []*request) {
	end := b.clock.Now()
	b.ctlMu.Lock()
	for _, r := range reqs {
		b.window = append(b.window, end.Sub(r.start).Nanoseconds())
	}
	if len(b.window) < b.policy.Window {
		b.ctlMu.Unlock()
		return
	}
	w := append([]int64(nil), b.window...)
	b.window = b.window[:0]
	b.ctlMu.Unlock()

	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	p95 := w[(len(w)*95)/100]

	b.mu.Lock()
	if time.Duration(p95) <= b.policy.SLO {
		if b.target < b.policy.MaxBatch {
			b.target++
		}
	} else {
		b.target /= 2
		if b.target < b.policy.MinBatch {
			b.target = b.policy.MinBatch
		}
	}
	t := b.target
	b.mu.Unlock()
	b.targetG.Set(int64(t))
}

// Close flushes the open batch, rejects further Do calls, and joins
// every linger watcher. It is idempotent and safe to call concurrently
// with in-flight Do calls (they complete normally).
func (b *Batcher) Close() {
	b.closing.Do(func() {
		b.mu.Lock()
		b.closed = true
		var take *pending
		if b.cur != nil {
			take = b.takeLocked()
		}
		b.mu.Unlock()
		close(b.stop)
		if take != nil {
			b.lingerC.Inc() // a drain is a deadline flush, not a full batch
			b.flush(take)
		}
	})
	b.watchers.Wait()
}
