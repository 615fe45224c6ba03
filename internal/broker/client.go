package broker

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// Transport is the client-facing broker API. A *Broker satisfies it
// directly (in-process transport), RemoteClient over TCP and
// ClusterClient over a cluster's partition leaders. Stream processors
// and the Crayfish driver are written against this interface so
// experiments can switch transports without code changes.
type Transport interface {
	CreateTopic(name string, partitions int) error
	DeleteTopic(name string) error
	Partitions(topic string) (int, error)
	Produce(topic string, partition int, recs []Record) (int64, error)
	Fetch(topic string, partition int, offset int64, max int) ([]Record, error)
	FetchMulti(topic string, reqs []FetchRequest, maxTotal int) ([]Record, error)
	MultiFetcherInto
	// Await parks at the broker — Kafka's fetch.max.wait.ms, with
	// fetch.min.bytes left at its default of 1 — until a record is
	// readable at or past one of the positions, wait elapses or cancel
	// closes (a nil channel never does), and returns nil in each case: it
	// carries no records, and the fetch that follows says what is there.
	// It may return early. An error means waiting is pointless: the topic
	// or the broker is gone, or the transport failed.
	Await(topic string, positions []FetchRequest, wait time.Duration, cancel <-chan struct{}) error
	EndOffset(topic string, partition int) (int64, error)
	JoinGroup(group string, topics []string) (Assignment, error)
	LeaveGroup(group, memberID string) error
	FetchAssignment(group, memberID string, generation int) (Assignment, error)
	CommitOffset(group string, tp TopicPartition, offset int64) error
	CommittedOffset(group string, tp TopicPartition) (int64, error)
}

var _ Transport = (*Broker)(nil)

// FetchMaxWait is how long the product's consumer loops let one Poll park
// at the broker before they look at their own clocks again (commit
// intervals, stop). Kafka's fetch.max.wait.ms defaults to 500
// and Kafka Streams' poll.ms to 100; nothing here is sensitive to it,
// because a parked Poll returns on the first record and on stop.
const FetchMaxWait = 50 * time.Millisecond

// AppendNotifier is the in-process *Broker's append signal, the
// primitive its Await parks on: AppendSignal returns a channel closed on
// the topic's next append. Consumers do not use it; they call Await.
type AppendNotifier interface {
	AppendSignal(topic string) (<-chan struct{}, error)
}

var _ AppendNotifier = (*Broker)(nil)

// MultiFetcherInto is the poll path of every Transport: FetchMultiInto
// is FetchMulti appending the fetched records into the caller's reusable
// buffer, so a consumer polls without a response slice per call (over
// TCP at one allocation per non-empty fetch, the frame body its records
// alias).
type MultiFetcherInto interface {
	FetchMultiInto(topic string, reqs []FetchRequest, maxTotal int, out []Record) ([]Record, error)
}

// Producer writes records to a topic, spreading keyless records
// round-robin across partitions and hashing keyed records.
type Producer struct {
	t     Transport
	topic string

	mu    sync.Mutex
	parts int
	next  int
}

// NewProducer creates a producer bound to one topic.
func NewProducer(t Transport, topic string) (*Producer, error) {
	n, err := t.Partitions(topic)
	if err != nil {
		return nil, err
	}
	return &Producer{t: t, topic: topic, parts: n}, nil
}

// Send appends one record, stamping it with the current time as its
// CreateTime, and returns the partition and offset it landed at.
func (p *Producer) Send(key, value []byte) (int, int64, error) {
	part := p.pickPartition(key)
	//lint:allow clockdiscipline client-side CreateTime stamp, not on the measured path
	off, err := p.t.Produce(p.topic, part, []Record{{key: key, Value: value, Timestamp: time.Now()}})
	if err != nil {
		return 0, 0, err
	}
	return part, off, nil
}

// SendBatch appends several records in a single broker call to the next
// round-robin partition, the way Kafka producers batch sends
// (batch.size/linger.ms). It returns the partition and base offset.
func (p *Producer) SendBatch(recs []Record) (int, int64, error) {
	if len(recs) == 0 {
		return 0, 0, nil
	}
	part := p.pickPartition(nil)
	off, err := p.t.Produce(p.topic, part, recs)
	return part, off, err
}

// NextPartition advances the round-robin cursor and returns the partition
// a keyless record would target. Batching producers use it to pick the
// partition for a multi-record append.
func (p *Producer) NextPartition() int {
	return p.pickPartition(nil)
}

func (p *Producer) pickPartition(key []byte) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(key) > 0 {
		h := fnv.New32a()
		h.Write(key)
		return int(h.Sum32() % uint32(p.parts))
	}
	part := p.next
	p.next = (p.next + 1) % p.parts
	return part
}

// Consumer reads records from assigned partitions. It operates in either
// assigned mode (explicit partitions, like Kafka's assign()) or group mode
// (dynamic assignment with rebalancing, like subscribe()).
type Consumer struct {
	t     Transport
	topic string

	group      string
	memberID   string
	generation int

	mu        sync.Mutex
	assigned  []TopicPartition
	positions map[TopicPartition]int64
	rr        int
	closed    bool

	// reqs and recs are Poll's reusable request and response buffers
	// (guarded by mu like the rest of the poll state), so the
	// steady-state fetch path stops reallocating per call.
	reqs []FetchRequest
	recs []Record

	// caughtUp and waitReqs belong to the goroutine in Poll, not to mu.
	// caughtUp: the last fetch drained what was readable, so the next
	// blocking Poll parks before it fetches. waitReqs: the positions
	// handed to Await, which runs with mu released.
	caughtUp bool
	waitReqs []FetchRequest
}

// NewAssignedConsumer creates a consumer reading the given partitions of a
// topic starting at offset 0.
func NewAssignedConsumer(t Transport, topic string, partitions ...int) (*Consumer, error) {
	n, err := t.Partitions(topic)
	if err != nil {
		return nil, err
	}
	c := &Consumer{t: t, topic: topic, positions: make(map[TopicPartition]int64)}
	if len(partitions) == 0 {
		for i := 0; i < n; i++ {
			partitions = append(partitions, i)
		}
	}
	for _, p := range partitions {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("%w: %s/%d", errUnknownPartition, topic, p)
		}
		c.assigned = append(c.assigned, TopicPartition{Topic: topic, Partition: p})
	}
	return c, nil
}

// NewGroupConsumer creates a consumer that joins a consumer group and
// receives a dynamic partition assignment, resuming from committed
// offsets.
func NewGroupConsumer(t Transport, group, topic string) (*Consumer, error) {
	a, err := t.JoinGroup(group, []string{topic})
	if err != nil {
		return nil, err
	}
	c := &Consumer{
		t: t, topic: topic, group: group,
		memberID: a.MemberID, generation: a.Generation,
		positions: make(map[TopicPartition]int64),
	}
	if err := c.adopt(a); err != nil {
		return nil, err
	}
	return c, nil
}

// adopt installs a new assignment, seeding positions from committed
// offsets.
func (c *Consumer) adopt(a Assignment) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.generation = a.Generation
	c.assigned = a.Partitions
	for _, tp := range a.Partitions {
		if _, ok := c.positions[tp]; ok {
			continue
		}
		off, err := c.t.CommittedOffset(c.group, tp)
		if err != nil {
			return err
		}
		c.positions[tp] = off
	}
	return nil
}

// Poll returns up to max records in a single multi-partition fetch
// request, rotating the partition order round-robin for fairness and
// advancing positions past returned records. With wait > 0 it blocks the
// way a Kafka consumer's poll does: when nothing is readable it parks at
// the broker (Transport.Await) until a record arrives, wait elapses or
// cancel closes, and then fetches once. A poll that follows one which
// drained the log parks before it fetches rather than after, so a record
// arriving at an idle consumer costs one await and one fetch. With
// wait == 0 Poll never blocks. An empty result means nothing arrived
// within the wait, or cancel closed, or the transport's Await returned
// early (it may): callers loop on their own clock. In group mode a
// broker-side rebalance is handled transparently by adopting the new
// assignment, which is checked after the park and before the fetch, so
// no record is fetched under an assignment older than one round trip.
//
// Poll is for one goroutine at a time. Buffer ownership: the returned
// slice is the consumer's reusable response buffer — it stays valid only
// until the next Poll, so consume (or copy out) its records before
// polling again. The records' Key/Value byte slices alias the broker's
// immutable log (or, over TCP, the body their response frame was read
// into, which nothing reuses) and remain valid past the next poll.
func (c *Consumer) Poll(max int, wait time.Duration, cancel <-chan struct{}) ([]Record, error) {
	if max <= 0 {
		max = 1
	}
	park := wait > 0 && c.caughtUp
	for {
		if park {
			if err := c.await(wait, cancel); err != nil {
				return nil, err
			}
		}
		recs, err := c.fetch(max)
		if err != nil || len(recs) > 0 || wait <= 0 || park {
			return recs, err
		}
		park = true
	}
}

// await parks at the broker on the consumer's current positions, without
// holding mu: Close, Commit and Positions stay responsive meanwhile.
func (c *Consumer) await(wait time.Duration, cancel <-chan struct{}) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errClosed
	}
	c.waitReqs = c.appendPositionsLocked(c.waitReqs[:0])
	c.mu.Unlock()
	return c.t.Await(c.topic, c.waitReqs, wait, cancel)
}

// appendPositionsLocked appends the assigned partitions' positions in
// this poll's round-robin order.
func (c *Consumer) appendPositionsLocked(reqs []FetchRequest) []FetchRequest {
	for i := range c.assigned {
		tp := c.assigned[(c.rr+i)%len(c.assigned)]
		reqs = append(reqs, FetchRequest{Partition: tp.Partition, Offset: c.positions[tp]})
	}
	return reqs
}

// fetch is one non-blocking poll: the assignment check of a group
// member, then one multi-partition fetch.
func (c *Consumer) fetch(max int) ([]Record, error) {
	if c.group != "" {
		a, err := c.t.FetchAssignment(c.group, c.memberID, c.generation)
		if errors.Is(err, errRebalance) {
			if err := c.adopt(a); err != nil {
				return nil, err
			}
		} else if err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClosed
	}
	c.caughtUp = true
	if len(c.assigned) == 0 {
		return nil, nil
	}
	c.reqs = c.appendPositionsLocked(c.reqs[:0])
	c.rr++
	out, err := c.t.FetchMultiInto(c.topic, c.reqs, max, c.recs[:0])
	if err != nil {
		return nil, err
	}
	c.recs = out[:0]
	// A fetch that filled its max may have left records behind; any
	// other drained what was readable.
	c.caughtUp = len(out) < max
	for _, rec := range out {
		tp := TopicPartition{Topic: c.topic, Partition: rec.Partition}
		if rec.Offset+1 > c.positions[tp] {
			c.positions[tp] = rec.Offset + 1
		}
	}
	return out, nil
}

// Commit persists current positions as the group's committed offsets.
// It is a no-op for assigned-mode consumers.
func (c *Consumer) Commit() error {
	if c.group == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tp := range c.assigned {
		if err := c.t.CommitOffset(c.group, tp, c.positions[tp]); err != nil {
			return err
		}
	}
	return nil
}

// Close leaves the consumer group (if any) and marks the consumer unusable.
func (c *Consumer) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	if c.group != "" {
		return c.t.LeaveGroup(c.group, c.memberID)
	}
	return nil
}
