package broker

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"crayfish/internal/faults"
	"crayfish/internal/netsim"
	"crayfish/internal/telemetry"
	"crayfish/internal/timing"
)

// Errors returned by broker operations.
var (
	ErrTopicExists      = errors.New("broker: topic already exists")
	errUnknownTopic     = errors.New("broker: unknown topic")
	errUnknownPartition = errors.New("broker: unknown partition")
	errMessageTooLarge  = errors.New("broker: message exceeds max request size")
	errOffsetOutOfRange = errors.New("broker: offset out of range")
	errRebalance        = errors.New("broker: consumer group rebalanced; rejoin required")
	errUnknownMember    = errors.New("broker: unknown group member")
	errClosed           = errors.New("broker: closed")
)

// maxRequestSize bounds a single record's value size. The paper raises
// Kafka's limit to 50 MB for large-batch latency experiments (§4.3).
const maxRequestSize = 50 << 20

// Config tunes a Broker.
type Config struct {
	// Network injects a modelled LAN hop (latency + payload transfer
	// time) into every produce and fetch, imitating the separate-VM
	// deployment of §4.2. The zero profile keeps the broker in-process
	// fast; experiments opt into netsim.LAN.
	Network netsim.Profile
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
	// ID is the broker's node id inside a replicated cluster; its
	// fault-plan target name is "node-<ID>". A standalone broker leaves
	// it 0.
	ID int
	// clock supplies LogAppendTime stamps; nil means time.Now. Tests
	// inject a fake clock to make timestamp assertions deterministic.
	clock func() time.Time
	// ackTimeout bounds how long a produce to a replicated partition
	// waits for the high-watermark to cover it before failing retryably
	// (default 5s) — Kafka's request.timeout.ms under acks=all.
	ackTimeout time.Duration
	// replicaPoll is the follower fetch loop's idle re-poll interval
	// (default 1ms).
	replicaPoll time.Duration
}

// DefaultConfig mirrors the paper's broker settings.
func DefaultConfig() Config {
	return Config{}
}

// Broker is an in-process message broker instance. It runs alone, or as
// one node of a replicated cluster once a controller pushes it a view
// (node.go): the partitions a view covers are replicated, and produce,
// fetch and await on them follow the node's leadership and
// high-watermark. A broker that never receives a view has only
// unreplicated partitions.
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

	// mu guards the maps, the lifecycle flags and the cluster-node state
	// below. Lock ordering: mu → replState.mu → partition.mu →
	// topic.notifyMu; nothing locks upward.
	mu     sync.RWMutex
	topics map[string]*topic
	groups map[string]*group
	closed bool

	// Cluster-node state, which a standalone broker leaves empty. down
	// means crashed: calls answer retryable errNodeDown until Restart.
	down     bool
	ctrl     *Controller // set on the controller seat; routes topic admin
	view     ClusterView
	peers    map[int]ClusterPeer
	fetchers map[TopicPartition]*fetcher
	wg       sync.WaitGroup
}

// New creates a broker with the given configuration.
func New(cfg Config) *Broker {
	if cfg.clock == nil {
		//lint:allow clockdiscipline documented default; tests inject a fake clock
		cfg.clock = time.Now
	}
	if cfg.ackTimeout <= 0 {
		cfg.ackTimeout = 5 * time.Second
	}
	if cfg.replicaPoll <= 0 {
		cfg.replicaPoll = time.Millisecond
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
		peers:          make(map[int]ClusterPeer),
		fetchers:       make(map[TopicPartition]*fetcher),
	}
}

// CreateTopic registers a topic with the given number of partitions. On
// the controller seat of a cluster it places a replicated topic
// cluster-wide; any other cluster node refuses.
func (b *Broker) CreateTopic(name string, partitions int) error {
	switch ctrl, err := b.admin("create"); {
	case err != nil:
		return err
	case ctrl != nil:
		return ctrl.CreateTopic(name, partitions)
	}
	if partitions <= 0 {
		return fmt.Errorf("broker: topic %q needs at least one partition", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.gateLocked(); err != nil {
		return err
	}
	if _, ok := b.topics[name]; ok {
		return fmt.Errorf("%w: %q", ErrTopicExists, name)
	}
	b.createTopicLocked(name, partitions)
	return nil
}

// createTopicLocked adds an empty topic. Caller holds b.mu.
func (b *Broker) createTopicLocked(name string, partitions int) *topic {
	t := newTopic(name, partitions)
	t.backlog = b.cfg.Metrics.Gauge("broker.backlog." + name)
	b.topics[name] = t
	return t
}

// DeleteTopic removes a topic, its logs, and any consumer-group offsets
// referencing it (so a recreated topic starts clean). Whoever is parked
// in Await on the topic wakes to errUnknownTopic. Topic admin on a
// cluster runs through the controller seat, as in CreateTopic.
func (b *Broker) DeleteTopic(name string) error {
	switch ctrl, err := b.admin("delete"); {
	case err != nil:
		return err
	case ctrl != nil:
		return ctrl.DeleteTopic(name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.gateLocked(); err != nil {
		return err
	}
	t, ok := b.topics[name]
	if !ok {
		return fmt.Errorf("%w: %q", errUnknownTopic, name)
	}
	b.deleteTopicLocked(t)
	return nil
}

// deleteTopicLocked drops a topic and the group state naming it. Caller
// holds b.mu.
func (b *Broker) deleteTopicLocked(t *topic) {
	delete(b.topics, t.name)
	t.wake(fmt.Errorf("%w: %q", errUnknownTopic, t.name))
	for _, g := range b.groups {
		for tp := range g.committed {
			if tp.Topic == t.name {
				delete(g.committed, tp)
			}
		}
		delete(g.topics, t.name)
	}
}

// admin says where topic admin runs: through the controller on the
// controller seat, here (nil, nil) on a standalone broker. A cluster
// node — one linked to peers or holding a view — without the seat
// refuses it.
func (b *Broker) admin(op string) (*Controller, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.gateLocked(); err != nil {
		return nil, err
	}
	if b.ctrl == nil && (len(b.peers) > 0 || b.view.Version > 0) {
		return nil, fmt.Errorf("broker: %s is not the controller; %s topics against the controller node", b.Name(), op)
	}
	return b.ctrl, nil
}

// Partitions returns the partition count of a topic.
func (b *Broker) Partitions(name string) (int, error) {
	t, err := b.topic(name)
	if err != nil {
		return 0, err
	}
	return len(t.parts), nil
}

// Close shuts the broker down for good. Outstanding clients receive
// errClosed, those parked in Await included; a cluster node's follower
// fetchers stop and Close waits for them.
func (b *Broker) Close() {
	b.mu.Lock()
	b.closed = true
	b.stopFetchersLocked()
	for _, t := range b.topics {
		t.wake(errClosed)
	}
	b.mu.Unlock()
	b.wg.Wait()
}

// gateLocked refuses every call on a closed or crashed broker. Caller
// holds b.mu.
func (b *Broker) gateLocked() error {
	if b.closed {
		return errClosed
	}
	if b.down {
		return b.nodeDown()
	}
	return nil
}

// gate is gateLocked for a caller that holds no lock.
func (b *Broker) gate() error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.gateLocked()
}

func (b *Broker) topic(name string) (*topic, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.gateLocked(); err != nil {
		return nil, err
	}
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errUnknownTopic, name)
	}
	return t, nil
}

// partition resolves one partition of a topic through the gate.
func (b *Broker) partition(topicName string, id int) (*topic, *partition, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, nil, err
	}
	if id < 0 || id >= len(t.parts) {
		return nil, nil, fmt.Errorf("%w: %s/%d", errUnknownPartition, topicName, id)
	}
	return t, t.parts[id], nil
}

// Produce appends records to a topic partition, stamping each with the
// broker's LogAppendTime. It returns the assigned base offset. On a
// replicated partition only the leader takes the append, and the call
// returns once the high-watermark covers it (produceAcked).
func (b *Broker) Produce(topicName string, partition int, recs []Record) (int64, error) {
	t, p, err := b.partition(topicName, partition)
	if err != nil {
		return 0, err
	}
	for i := range recs {
		if len(recs[i].Value) > maxRequestSize {
			return 0, fmt.Errorf("%w: %d > %d bytes", errMessageTooLarge, len(recs[i].Value), maxRequestSize)
		}
	}
	rs := p.repl.Load()
	if rs != nil {
		// A misrouted produce is refused before the hop and the fault
		// verdicts, which belong to the leader's append.
		if _, err := rs.visible(); err != nil {
			return 0, err
		}
	}
	if b.cfg.Network.Enabled() {
		b.cfg.Network.Apply(recordBytes(recs))
	}
	if b.cfg.Faults != nil {
		recs = b.applyFaults(topicName, recs)
	}
	if rs != nil {
		return b.produceAcked(t, p, rs, recs)
	}
	base := p.append(recs, b.cfg.clock)
	b.countAppend(t, recs)
	t.changed()
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
	timing.Sleep(hold)
	return out
}

// rebalanceGroups bumps every consumer group's generation, forcing all
// members through a rebalance round trip. The cluster controller calls
// it on the coordinator seat when broker membership changes, mirroring
// Kafka's rebalance-on-cluster-change.
func (b *Broker) rebalanceGroups() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, g := range b.groups {
		_ = b.rebalanceLocked(g)
	}
}

// AppendSignal returns a channel that is closed the next time records are
// appended to any partition of the topic (on a cluster node, also when a
// high-watermark advances or the node's leadership or liveness moves),
// or the topic or the broker goes away. Callers must capture the channel, check for data, and only then
// block on it: the capture-then-check order guarantees an append racing
// the check wakes the wait instead of being lost. Await is that loop.
func (b *Broker) AppendSignal(topicName string) (<-chan struct{}, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	return t.appendSignal()
}

// Await implements Transport on the topic's signal: it returns nil once
// a record is readable at one of the positions (a position below its
// partition's visible end, or past its log end so that the fetch refuses
// it), once a replicated position's partition is no longer led here (the
// fetch answers NotLeaderError), once wait has elapsed, or once cancel
// closes. It returns errUnknownTopic, errClosed or errNodeDown when the
// topic is deleted, the broker closed or crashed — before the call or
// while it is parked. An append a replicated partition has not acked
// yet wakes the wait, which checks again and parks again.
func (b *Broker) Await(topicName string, positions []FetchRequest, wait time.Duration, cancel <-chan struct{}) error {
	t, err := b.topic(topicName)
	if err != nil {
		return err
	}
	for _, pos := range positions {
		if pos.Partition < 0 || pos.Partition >= len(t.parts) {
			return fmt.Errorf("%w: %s/%d", errUnknownPartition, topicName, pos.Partition)
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
		// Capture, then check: an append, a high-watermark advance, a
		// leadership loss or a crash that races the checks closes the
		// captured channel, so the park below wakes instead of missing it.
		var signal <-chan struct{}
		if signal, err = t.appendSignal(); err == nil {
			err = b.gate()
		}
		if err != nil || t.readable(positions) {
			break
		}
		if deadline == nil {
			b.mAwaitParked.Inc()
			if b.mAwaitWait != nil {
				parkedAt = b.cfg.clock()
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
		b.mAwaitWait.Record(int64(b.cfg.clock().Sub(parkedAt)))
	}
	return err
}

// countAppend and countFetch publish live log-traffic telemetry; both
// are no-ops when the broker was built without a metrics registry.
func (b *Broker) countAppend(t *topic, recs []Record) {
	if b.mAppendRecords == nil {
		return
	}
	b.mAppendRecords.Add(int64(len(recs)))
	b.mAppendBytes.Add(int64(recordBytes(recs)))
	t.backlog.Add(int64(len(recs)))
}

func (b *Broker) countFetch(t *topic, recs []Record) {
	if b.mFetchRecords == nil || len(recs) == 0 {
		return
	}
	b.mFetchRecords.Add(int64(len(recs)))
	b.mFetchBytes.Add(int64(recordBytes(recs)))
	t.backlog.Add(-int64(len(recs)))
}

// recordBytes is the payload size the network model and the traffic
// counters charge for records.
func recordBytes(recs []Record) int {
	n := 0
	for i := range recs {
		n += len(recs[i].Value) + len(recs[i].key)
	}
	return n
}

// Fetch reads up to maxRecords from a topic partition starting at offset.
// It never blocks: an empty slice means the consumer caught up.
func (b *Broker) Fetch(topicName string, partition int, offset int64, maxRecords int) ([]Record, error) {
	return b.FetchMultiInto(topicName, []FetchRequest{{Partition: partition, Offset: offset}}, maxRecords, nil)
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
// records, exactly as FetchMulti's do. A replicated partition serves
// only below its high-watermark, and only on its leader: records a
// leader crash could still lose stay invisible to consumers, which is
// what makes failover consumer-transparent.
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
			return nil, fmt.Errorf("%w: %s/%d", errUnknownPartition, topicName, req.Partition)
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
		b.cfg.Network.Apply(recordBytes(fetched))
	}
	b.countFetch(t, fetched)
	return out, nil
}

// EndOffset returns the end of what consumers may read in a partition:
// the log end, or a replicated partition's high-watermark, as in Kafka.
func (b *Broker) EndOffset(topicName string, partition int) (int64, error) {
	_, p, err := b.partition(topicName, partition)
	if err != nil {
		return 0, err
	}
	return p.visibleEnd()
}

// topic is a named set of partitions. backlog tracks appended-minus-
// fetched records as a live queue-depth proxy: exact while each record
// is fetched once (the Crayfish pipeline reads every topic through a
// single consuming side), an overestimate under re-reads.
type topic struct {
	name    string
	parts   []*partition
	backlog *telemetry.Gauge

	// The topic's signal. notify exists only between a waiter asking for
	// it and the change (or the topic's end) that closes it; armed
	// mirrors notify != nil so that an append nobody waits for takes no
	// lock and makes no channel. gone is why the topic stopped taking
	// waiters.
	armed    atomic.Bool
	notifyMu sync.Mutex
	notify   chan struct{}
	gone     error
}

func newTopic(name string, n int) *topic {
	t := &topic{name: name, parts: make([]*partition, n)}
	for i := range t.parts {
		t.parts[i] = &partition{id: i}
	}
	return t
}

// changed wakes every waiter parked on the topic's signal: records were
// appended, a high-watermark advanced, or the broker's leadership or
// liveness moved. A waiter arms the signal before it checks, and the
// change is made before this runs, so a waiter whose check missed the
// change is seen here as armed.
func (t *topic) changed() {
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

// appendSignal arms the signal and returns the channel the next change
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
// something: records, NotLeaderError, or the error of an offset out of
// range.
func (t *topic) readable(positions []FetchRequest) bool {
	for _, pos := range positions {
		p := t.parts[pos.Partition]
		visible, err := p.visibleEnd()
		if err != nil || pos.Offset < visible || pos.Offset > visible && pos.Offset > p.end() {
			return true
		}
	}
	return false
}

// partition is an append-only record log; a record's offset is its index.
// repl is its replication state, nil while no cluster view covers it.
type partition struct {
	id   int
	repl atomic.Pointer[replState]

	mu   sync.RWMutex
	recs []Record
}

// append stamps and stores records, returning the base offset.
func (p *partition) append(recs []Record, clock func() time.Time) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Stamped under the lock: append times never decrease along the log.
	now := clock()
	base := int64(len(p.recs))
	for i, r := range recs {
		r.Partition = p.id
		r.Offset = base + int64(i)
		r.AppendTime = now
		p.recs = append(p.recs, r)
	}
	return base
}

// visibleEnd is the end of what consumers may read: the high-watermark
// of a replicated partition this broker leads, NotLeaderError for one it
// does not, and the log end of an unreplicated one.
func (p *partition) visibleEnd() (int64, error) {
	if rs := p.repl.Load(); rs != nil {
		return rs.visible()
	}
	return p.end(), nil
}

// fetchInto appends up to max records a consumer may read from offset
// to out, so multi-partition pollers reuse one response buffer across
// calls instead of allocating per partition per poll.
func (p *partition) fetchInto(offset int64, max int, out []Record) ([]Record, error) {
	visible := int64(math.MaxInt64)
	if rs := p.repl.Load(); rs != nil {
		var err error
		if visible, err = rs.visible(); err != nil {
			return nil, err
		}
	}
	return p.read(offset, max, visible, out)
}

// read appends up to n records from offset, stopping at visible, to
// out: the raw log read under every fetch.
func (p *partition) read(offset int64, n int, visible int64, out []Record) ([]Record, error) {
	if n <= 0 {
		n = 1
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	end := int64(len(p.recs))
	if offset < 0 || offset > end {
		return nil, fmt.Errorf("%w: offset %d, log range [0, %d]", errOffsetOutOfRange, offset, end)
	}
	return append(out, p.recs[offset:min(offset+int64(n), end, max(visible, offset))]...), nil
}

// replicate appends leader-stamped records verbatim. Records the
// replica already holds are skipped (replica fetches can overlap after
// a retried round trip); a gap past the local end is an error — the
// follower must re-fetch from its end.
func (p *partition) replicate(recs []Record) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	end := int64(len(p.recs))
	for _, r := range recs {
		if r.Offset < end {
			continue
		}
		if r.Offset > end {
			return fmt.Errorf("%w: replica append at %d past log end %d", errOffsetOutOfRange, r.Offset, end)
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
	if to < int64(len(p.recs)) {
		p.recs = p.recs[:max(to, 0)]
	}
}

func (p *partition) end() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return int64(len(p.recs))
}
