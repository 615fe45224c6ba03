package broker

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crayfish/internal/faults"
	"crayfish/internal/netsim"
	"crayfish/internal/telemetry"
)

// Errors returned by broker operations.
var (
	ErrTopicExists      = errors.New("broker: topic already exists")
	ErrUnknownTopic     = errors.New("broker: unknown topic")
	ErrUnknownPartition = errors.New("broker: unknown partition")
	ErrMessageTooLarge  = errors.New("broker: message exceeds max request size")
	ErrOffsetOutOfRange = errors.New("broker: offset out of range")
	ErrRebalance        = errors.New("broker: consumer group rebalanced; rejoin required")
	ErrUnknownMember    = errors.New("broker: unknown group member")
	ErrClosed           = errors.New("broker: closed")
)

// Config tunes a Broker.
type Config struct {
	// MaxRequestSize bounds a single record's value size. The paper
	// raises Kafka's limit to 50 MB for large-batch latency experiments
	// (§4.3); the same default applies here.
	MaxRequestSize int
	// Network injects a modelled LAN hop (latency + payload transfer
	// time) into every produce and fetch, imitating the separate-VM
	// deployment of §4.2. The zero profile keeps the broker in-process
	// fast; experiments opt into netsim.LAN.
	Network netsim.Profile
	// Clock supplies LogAppendTime stamps; nil means time.Now. Tests
	// inject a fake clock to make timestamp assertions deterministic.
	Clock func() time.Time
	// RetentionRecords caps each partition's log length, like Kafka's
	// retention.bytes: once a partition exceeds the cap, its oldest
	// records are truncated and the log start offset advances. Zero
	// keeps everything (the experiments' default — runs are short and
	// discard the broker wholesale).
	RetentionRecords int
	// Metrics publishes live broker telemetry (append/fetch counts and
	// per-topic backlog gauges; see docs/OBSERVABILITY.md) into the
	// given registry. Nil disables instrumentation at near-zero cost.
	Metrics *telemetry.Registry
	// Faults applies a deterministic fault plan at the produce boundary:
	// per-record drop / duplicate / delay verdicts keyed by topic
	// sequence numbers (see internal/faults and docs/FAULTS.md). Nil
	// disables injection. Delivery stays at-least-once: duplicated
	// records surface downstream and are deduplicated by the consumer's
	// seen-set, dropped records are accounted by the injector.
	Faults *faults.Injector
}

// DefaultConfig mirrors the paper's broker settings.
func DefaultConfig() Config {
	return Config{MaxRequestSize: 50 << 20}
}

// Broker is an in-process message broker instance.
type Broker struct {
	cfg Config

	// Metric handles, resolved once at construction (nil when telemetry
	// is disabled; recording through nil handles is a no-op).
	mAppendRecords *telemetry.Counter
	mAppendBytes   *telemetry.Counter
	mFetchRecords  *telemetry.Counter
	mFetchBytes    *telemetry.Counter
	mAwaitParked   *telemetry.Counter
	mAwaitTimeouts *telemetry.Counter
	mAwaitWait     *telemetry.Histogram

	mu     sync.RWMutex
	topics map[string]*topic
	groups map[string]*group
	closed bool
}

// New creates a broker with the given configuration.
func New(cfg Config) *Broker {
	if cfg.MaxRequestSize <= 0 {
		cfg.MaxRequestSize = DefaultConfig().MaxRequestSize
	}
	if cfg.Clock == nil {
		//lint:allow clockdiscipline documented default; measurements inject a fake clock
		cfg.Clock = time.Now
	}
	return &Broker{
		cfg:            cfg,
		mAppendRecords: cfg.Metrics.Counter("broker.append.records"),
		mAppendBytes:   cfg.Metrics.Counter("broker.append.bytes"),
		mFetchRecords:  cfg.Metrics.Counter("broker.fetch.records"),
		mFetchBytes:    cfg.Metrics.Counter("broker.fetch.bytes"),
		mAwaitParked:   cfg.Metrics.Counter("broker.await.parked"),
		mAwaitTimeouts: cfg.Metrics.Counter("broker.await.timeouts"),
		mAwaitWait:     cfg.Metrics.Histogram("broker.await.wait_ns"),
		topics:         make(map[string]*topic),
		groups:         make(map[string]*group),
	}
}

// CreateTopic registers a topic with the given number of partitions.
func (b *Broker) CreateTopic(name string, partitions int) error {
	if partitions <= 0 {
		return fmt.Errorf("broker: topic %q needs at least one partition", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	if _, ok := b.topics[name]; ok {
		return fmt.Errorf("%w: %q", ErrTopicExists, name)
	}
	t := newTopic(name, partitions, b.cfg.RetentionRecords)
	t.backlog = b.cfg.Metrics.Gauge("broker.backlog." + name)
	b.topics[name] = t
	return nil
}

// DeleteTopic removes a topic, its logs, and any consumer-group offsets
// referencing it (so a recreated topic starts clean). Whoever is parked
// in Await on the topic wakes to ErrUnknownTopic.
func (b *Broker) DeleteTopic(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.topics[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	delete(b.topics, name)
	t.wake(fmt.Errorf("%w: %q", ErrUnknownTopic, name))
	for _, g := range b.groups {
		for tp := range g.committed {
			if tp.Topic == name {
				delete(g.committed, tp)
			}
		}
		delete(g.topics, name)
	}
	return nil
}

// Topics lists topic names in sorted order.
func (b *Broker) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.topics))
	for name := range b.topics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Partitions returns the partition count of a topic.
func (b *Broker) Partitions(name string) (int, error) {
	t, err := b.topic(name)
	if err != nil {
		return 0, err
	}
	return len(t.parts), nil
}

// Close marks the broker closed. Outstanding clients receive ErrClosed,
// those parked in Await included.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	for _, t := range b.topics {
		t.wake(ErrClosed)
	}
}

func (b *Broker) topic(name string) (*topic, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, ErrClosed
	}
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	return t, nil
}

// Produce appends records to a topic partition, stamping each with the
// broker's LogAppendTime. It returns the assigned base offset.
func (b *Broker) Produce(topicName string, partition int, recs []Record) (int64, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, err
	}
	for i := range recs {
		if len(recs[i].Value) > b.cfg.MaxRequestSize {
			return 0, fmt.Errorf("%w: %d > %d bytes", ErrMessageTooLarge, len(recs[i].Value), b.cfg.MaxRequestSize)
		}
	}
	if partition < 0 || partition >= len(t.parts) {
		return 0, fmt.Errorf("%w: %s/%d", ErrUnknownPartition, topicName, partition)
	}
	if b.cfg.Network.Enabled() {
		bytes := 0
		for i := range recs {
			bytes += len(recs[i].Value) + len(recs[i].Key)
		}
		b.cfg.Network.Apply(bytes)
	}
	if b.cfg.Faults != nil {
		recs = b.applyFaults(topicName, recs)
	}
	base := t.parts[partition].append(recs, b.cfg.Clock)
	b.countAppend(t, recs)
	t.appended()
	return base, nil
}

// applyFaults asks the injector for a verdict per record: drops are
// removed before the log append, duplicates appended twice, delays
// served inline (the produce call is the network hop being faulted,
// mirroring netsim.Profile.Apply).
func (b *Broker) applyFaults(topicName string, recs []Record) []Record {
	out := make([]Record, 0, len(recs))
	var hold time.Duration
	for i := range recs {
		v := b.cfg.Faults.Message(topicName)
		if v.Drop {
			continue
		}
		hold += v.Delay
		out = append(out, recs[i])
		if v.Duplicate {
			out = append(out, recs[i])
		}
	}
	if hold > 0 {
		time.Sleep(hold) //lint:allow clockdiscipline modelled fault delay, applied like netsim.Profile.Apply
	}
	return out
}

// replicate appends already-stamped records from a partition leader,
// preserving their offsets and append times verbatim so replicas stay
// byte-identical to the leader's log. It bypasses the produce-boundary
// fault/network hooks — those fired once on the leader; replication is
// internal traffic — and skips the client-traffic counters.
func (b *Broker) replicate(topicName string, partition int, recs []Record) error {
	t, err := b.topic(topicName)
	if err != nil {
		return err
	}
	if partition < 0 || partition >= len(t.parts) {
		return fmt.Errorf("%w: %s/%d", ErrUnknownPartition, topicName, partition)
	}
	if err := t.parts[partition].replicate(recs); err != nil {
		return err
	}
	t.appended()
	return nil
}

// replicaRead serves a follower catch-up fetch from the raw log: no
// high-watermark clamp (followers replicate past it), no network model,
// and no consumer-traffic counters.
func (b *Broker) replicaRead(topicName string, partition int, offset int64, max int) ([]Record, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return nil, fmt.Errorf("%w: %s/%d", ErrUnknownPartition, topicName, partition)
	}
	return t.parts[partition].fetch(offset, max)
}

// truncateTo discards records at and above offset `to` — the demotion
// path for a deposed leader, which drops its unacked tail before
// re-fetching from the new leader.
func (b *Broker) truncateTo(topicName string, partition int, to int64) error {
	t, err := b.topic(topicName)
	if err != nil {
		return err
	}
	if partition < 0 || partition >= len(t.parts) {
		return fmt.Errorf("%w: %s/%d", ErrUnknownPartition, topicName, partition)
	}
	t.parts[partition].truncate(to)
	return nil
}

// RebalanceGroups bumps every consumer group's generation, forcing all
// members through a rebalance round trip. The cluster controller calls
// it on the coordinator seat when broker membership changes, mirroring
// Kafka's rebalance-on-cluster-change.
func (b *Broker) RebalanceGroups() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, g := range b.groups {
		_ = b.rebalanceLocked(g)
	}
}

// AppendSignal returns a channel that is closed the next time records are
// appended to any partition of the topic, or the topic or the broker goes
// away. Callers must capture the channel, check for data, and only then
// block on it: the capture-then-check order guarantees an append racing
// the check wakes the wait instead of being lost. Await is that loop.
func (b *Broker) AppendSignal(topicName string) (<-chan struct{}, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	return t.appendSignal()
}

// Await implements Transport on the topic's append signal: it returns
// nil once a record is readable at one of the positions (a position its
// partition's log end has moved off, so that an out-of-range one comes
// back at once for the fetch to refuse), once wait has elapsed, or once
// cancel closes, and ErrUnknownTopic or ErrClosed when the topic is
// deleted or the broker closed — before the call or while it is parked.
func (b *Broker) Await(topicName string, positions []FetchRequest, wait time.Duration, cancel <-chan struct{}) error {
	t, err := b.topic(topicName)
	if err != nil {
		return err
	}
	for _, pos := range positions {
		if pos.Partition < 0 || pos.Partition >= len(t.parts) {
			return fmt.Errorf("%w: %s/%d", ErrUnknownPartition, topicName, pos.Partition)
		}
	}
	if wait <= 0 {
		return nil
	}
	var deadline *time.Timer
	var parkedAt time.Time
	// The first check runs unarmed, so that an Await that finds records
	// leaves no channel behind for the next append to close.
	for !t.readable(positions) {
		// Capture, then check: an append that races the check closes the
		// captured channel, so the park below wakes instead of missing it.
		var signal <-chan struct{}
		if signal, err = t.appendSignal(); err != nil || t.readable(positions) {
			break
		}
		if deadline == nil {
			b.mAwaitParked.Inc()
			if b.mAwaitWait != nil {
				parkedAt = b.cfg.Clock()
			}
			deadline = time.NewTimer(wait)
			defer deadline.Stop()
		}
		select {
		case <-signal:
			continue
		case <-deadline.C:
			b.mAwaitTimeouts.Inc()
		case <-cancel:
		}
		break
	}
	if deadline != nil && b.mAwaitWait != nil {
		b.mAwaitWait.Record(int64(b.cfg.Clock().Sub(parkedAt)))
	}
	return err
}

// countAppend and countFetch publish live log-traffic telemetry; both
// are no-ops when the broker was built without a metrics registry.
func (b *Broker) countAppend(t *topic, recs []Record) {
	if b.mAppendRecords == nil {
		return
	}
	bytes := 0
	for i := range recs {
		bytes += len(recs[i].Value) + len(recs[i].Key)
	}
	b.mAppendRecords.Add(int64(len(recs)))
	b.mAppendBytes.Add(int64(bytes))
	t.backlog.Add(int64(len(recs)))
}

func (b *Broker) countFetch(t *topic, recs []Record) {
	if b.mFetchRecords == nil || len(recs) == 0 {
		return
	}
	bytes := 0
	for i := range recs {
		bytes += len(recs[i].Value) + len(recs[i].Key)
	}
	b.mFetchRecords.Add(int64(len(recs)))
	b.mFetchBytes.Add(int64(bytes))
	t.backlog.Add(-int64(len(recs)))
}

// Fetch reads up to maxRecords from a topic partition starting at offset.
// It never blocks: an empty slice means the consumer caught up.
func (b *Broker) Fetch(topicName string, partition int, offset int64, maxRecords int) ([]Record, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return nil, fmt.Errorf("%w: %s/%d", ErrUnknownPartition, topicName, partition)
	}
	recs, err := t.parts[partition].fetch(offset, maxRecords)
	if err == nil {
		if b.cfg.Network.Enabled() {
			bytes := 0
			for i := range recs {
				bytes += len(recs[i].Value) + len(recs[i].Key)
			}
			b.cfg.Network.Apply(bytes)
		}
		b.countFetch(t, recs)
	}
	return recs, err
}

// FetchRequest names one partition position inside a multi-partition
// fetch.
type FetchRequest struct {
	Partition int   `json:"partition"`
	Offset    int64 `json:"offset"`
}

// FetchMulti reads from several partitions of a topic in one broker round
// trip, up to maxTotal records overall — the shape of a real Kafka fetch
// request, which is what lets consumers amortise network latency across
// partitions. Requests are served in order; the network cost is charged
// once for the whole response.
func (b *Broker) FetchMulti(topicName string, reqs []FetchRequest, maxTotal int) ([]Record, error) {
	return b.FetchMultiInto(topicName, reqs, maxTotal, nil)
}

// FetchMultiInto is FetchMulti appending into out, reusing its capacity
// — the allocation-free poll path steady-state consumers ride (see
// docs/PERFORMANCE.md). The appended Record structs copy out of the
// log, so they stay valid regardless of what the caller later does with
// the buffer; their Key/Value byte slices alias the immutable stored
// records, exactly as FetchMulti's do.
func (b *Broker) FetchMultiInto(topicName string, reqs []FetchRequest, maxTotal int, out []Record) ([]Record, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	if maxTotal <= 0 {
		maxTotal = 1
	}
	base := len(out)
	for _, req := range reqs {
		if req.Partition < 0 || req.Partition >= len(t.parts) {
			return nil, fmt.Errorf("%w: %s/%d", ErrUnknownPartition, topicName, req.Partition)
		}
		if len(out)-base >= maxTotal {
			break
		}
		out, err = t.parts[req.Partition].fetchInto(req.Offset, maxTotal-(len(out)-base), out)
		if err != nil {
			return nil, err
		}
	}
	fetched := out[base:]
	if b.cfg.Network.Enabled() {
		bytes := 0
		for i := range fetched {
			bytes += len(fetched[i].Value) + len(fetched[i].Key)
		}
		b.cfg.Network.Apply(bytes)
	}
	b.countFetch(t, fetched)
	return out, nil
}

// EndOffset returns the next offset to be assigned in a partition (i.e.
// the current log end).
func (b *Broker) EndOffset(topicName string, partition int) (int64, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return 0, fmt.Errorf("%w: %s/%d", ErrUnknownPartition, topicName, partition)
	}
	return t.parts[partition].end(), nil
}

// StartOffset returns the earliest retained offset in a partition; it is
// greater than zero once retention has truncated the log head.
func (b *Broker) StartOffset(topicName string, partition int) (int64, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, err
	}
	if partition < 0 || partition >= len(t.parts) {
		return 0, fmt.Errorf("%w: %s/%d", ErrUnknownPartition, topicName, partition)
	}
	return t.parts[partition].startOffset(), nil
}

// topic is a named set of partitions. backlog tracks appended-minus-
// fetched records as a live queue-depth proxy: exact while each record
// is fetched once (the Crayfish pipeline reads every topic through a
// single consuming side), an overestimate under re-reads.
type topic struct {
	name    string
	parts   []*partition
	backlog *telemetry.Gauge

	// The append signal. notify exists only between a waiter asking for
	// it and the append (or the topic's end) that closes it; armed mirrors
	// notify != nil so that an append nobody waits for takes no lock and
	// makes no channel. gone is why the topic stopped taking waiters.
	armed    atomic.Bool
	notifyMu sync.Mutex
	notify   chan struct{}
	gone     error
}

func newTopic(name string, n, retention int) *topic {
	t := &topic{name: name, parts: make([]*partition, n)}
	for i := range t.parts {
		t.parts[i] = &partition{id: i, retention: retention}
	}
	return t
}

// appended wakes every waiter parked on the topic's append signal. A
// waiter arms the signal before it checks the log and the append lands in
// the log before this runs, so a waiter whose check missed the append is
// seen here as armed.
func (t *topic) appended() {
	if t.armed.Load() {
		t.wake(nil)
	}
}

// wake closes the armed signal, if any. A non-nil gone retires the topic:
// from here on appendSignal fails with it, so the woken waiters and every
// later one learn why.
func (t *topic) wake(gone error) {
	t.notifyMu.Lock()
	defer t.notifyMu.Unlock()
	if gone != nil {
		t.gone = gone
	}
	if t.notify != nil {
		close(t.notify)
		t.notify = nil
		t.armed.Store(false)
	}
}

// appendSignal arms the signal and returns the channel the next append
// will close, or the reason the topic is gone.
func (t *topic) appendSignal() (<-chan struct{}, error) {
	t.notifyMu.Lock()
	defer t.notifyMu.Unlock()
	if t.gone != nil {
		return nil, t.gone
	}
	if t.notify == nil {
		t.notify = make(chan struct{})
		t.armed.Store(true)
	}
	return t.notify, nil
}

// readable reports whether a fetch at one of the positions would return
// something: records, or the error of an offset out of range.
func (t *topic) readable(positions []FetchRequest) bool {
	for _, pos := range positions {
		if t.parts[pos.Partition].end() != pos.Offset {
			return true
		}
	}
	return false
}

// partition is an append-only record log. start is the log start offset:
// it advances when retention truncates the head, as Kafka's does.
type partition struct {
	id        int
	retention int

	mu    sync.RWMutex
	start int64
	recs  []Record
}

// append stamps and stores records, returning the base offset, and
// enforces the retention cap.
func (p *partition) append(recs []Record, clock func() time.Time) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Stamped under the lock: append times never decrease along the log.
	now := clock()
	base := p.start + int64(len(p.recs))
	for i, r := range recs {
		r.Partition = p.id
		r.Offset = base + int64(i)
		r.AppendTime = now
		p.recs = append(p.recs, r)
	}
	if p.retention > 0 && len(p.recs) > p.retention {
		drop := len(p.recs) - p.retention
		p.start += int64(drop)
		// Copy the tail into a fresh slice so the truncated head's
		// backing memory is released.
		tail := make([]Record, p.retention)
		copy(tail, p.recs[drop:])
		p.recs = tail
	}
	return base
}

// fetch copies up to max records starting at offset. An offset below the
// log start (truncated by retention) resets to the earliest retained
// record, Kafka's auto.offset.reset=earliest behaviour.
func (p *partition) fetch(offset int64, max int) ([]Record, error) {
	return p.fetchInto(offset, max, nil)
}

// fetchInto is fetch appending into out, so multi-partition pollers
// reuse one response buffer across calls instead of allocating per
// partition per poll.
func (p *partition) fetchInto(offset int64, max int, out []Record) ([]Record, error) {
	if max <= 0 {
		max = 1
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	end := p.start + int64(len(p.recs))
	if offset < 0 || offset > end {
		return nil, fmt.Errorf("%w: offset %d, log range [%d, %d]", ErrOffsetOutOfRange, offset, p.start, end)
	}
	if offset < p.start {
		offset = p.start
	}
	if offset == end {
		return out, nil
	}
	lo := offset - p.start
	hi := lo + int64(max)
	if hi > int64(len(p.recs)) {
		hi = int64(len(p.recs))
	}
	return append(out, p.recs[lo:hi]...), nil
}

// replicate appends leader-stamped records verbatim. Records the
// replica already holds are skipped (replica fetches can overlap after
// a retried round trip); a gap past the local end is an error — the
// follower must re-fetch from its end.
func (p *partition) replicate(recs []Record) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	end := p.start + int64(len(p.recs))
	for _, r := range recs {
		if r.Offset < end {
			continue
		}
		if r.Offset > end {
			return fmt.Errorf("%w: replica append at %d past log end %d", ErrOffsetOutOfRange, r.Offset, end)
		}
		p.recs = append(p.recs, r)
		end++
	}
	return nil
}

// truncate discards records at and above offset `to`.
func (p *partition) truncate(to int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if to < p.start {
		to = p.start
	}
	keep := to - p.start
	if keep < int64(len(p.recs)) {
		p.recs = p.recs[:keep]
	}
}

func (p *partition) end() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.start + int64(len(p.recs))
}

// startOffset returns the earliest retained offset.
func (p *partition) startOffset() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.start
}
