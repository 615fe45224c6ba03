package broker

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"crayfish/internal/resilience"
)

// ClusterClient is the partition-aware Transport over a broker cluster:
// it discovers per-partition leadership from cluster metadata, routes
// every produce/fetch to the partition leader, and rides failovers out
// — a NotLeader verdict, a dead node, or an ack timeout triggers a
// metadata refresh and a retried, re-routed call under the client's
// resilience policy. Group operations route to the coordinator seat
// (node 0). Safe for concurrent use.
type ClusterClient struct {
	links []ClusterTransport
	retry *resilience.Retry

	mu   sync.RWMutex
	view ClusterView
}

// NewClusterClient builds a client over one link per node, indexed by
// node id (links[0] must be the coordinator/controller seat). retry
// nil gets a failover-sized default: tight backoff, wall-clock bounded
// generously past leader-election latency.
func NewClusterClient(links []ClusterTransport, retry *resilience.Retry) (*ClusterClient, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("broker: cluster client needs at least one node link")
	}
	if retry == nil {
		retry = &resilience.Retry{
			BaseDelay:  500 * time.Microsecond,
			MaxDelay:   10 * time.Millisecond,
			MaxElapsed: 5 * time.Second,
		}
	}
	return &ClusterClient{links: links, retry: retry}, nil
}

// refreshView re-reads cluster metadata, preferring the coordinator
// but falling back to any live node.
func (c *ClusterClient) refreshView() error {
	var lastErr error
	for _, link := range c.links {
		v, err := link.ClusterView()
		if err != nil {
			lastErr = err
			continue
		}
		c.mu.Lock()
		if v.Version > c.view.Version {
			c.view = v
		}
		c.mu.Unlock()
		return nil
	}
	return fmt.Errorf("broker: no node answered a metadata request: %w", lastErr)
}

// leaderFor resolves the partition's leader from the cached view,
// refreshing once when the view does not cover the partition yet.
func (c *ClusterClient) leaderFor(tp TopicPartition) (int, error) {
	c.mu.RLock()
	leader, err := c.view.leader(tp)
	c.mu.RUnlock()
	if err == nil {
		return leader, nil
	}
	if rerr := c.refreshView(); rerr != nil {
		return 0, resilience.MarkRetryable(rerr)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	leader, err = c.view.leader(tp)
	if err != nil {
		// Offline or unknown: retryable — a restarting replica may
		// revive the partition within the retry budget.
		return 0, resilience.MarkRetryable(err)
	}
	return leader, nil
}

// leaderForRetry resolves a partition leader under the client's retry
// policy — for resolution happening outside an onLeader loop (request
// grouping), where a transient metadata miss must not escape unretried.
func (c *ClusterClient) leaderForRetry(tp TopicPartition) (int, error) {
	var leader int
	err := resilience.Run(c.retry, nil, func() error {
		var lerr error
		leader, lerr = c.leaderFor(tp)
		return lerr
	})
	return leader, err
}

// onLeader runs fn against the partition leader's link, refreshing
// metadata and re-routing on every retryable routing failure.
func (c *ClusterClient) onLeader(tp TopicPartition, fn func(link ClusterTransport) error) error {
	return resilience.Run(c.retry, nil, func() error {
		leader, err := c.leaderFor(tp)
		if err != nil {
			return err
		}
		if leader < 0 || leader >= len(c.links) {
			return resilience.MarkRetryable(fmt.Errorf("broker: leader %d of %s/%d has no link", leader, tp.Topic, tp.Partition))
		}
		err = fn(c.links[leader])
		if err != nil && resilience.IsRetryable(err) {
			// NotLeader, node down, fenced, ack timeout: the routing
			// table moved under us — refresh before the retry.
			_ = c.refreshView()
		}
		return err
	})
}

// onCoordinator runs fn against the coordinator seat, retrying
// transport-level failures only; broker-level verdicts (including
// errRebalance, which carries a valid assignment) pass through.
func (c *ClusterClient) onCoordinator(fn func(link ClusterTransport) error) error {
	var inner error
	err := resilience.Run(c.retry, nil, func() error {
		inner = fn(c.links[0])
		if inner != nil && resilience.IsRetryable(inner) {
			return inner
		}
		return nil
	})
	if err != nil {
		return err
	}
	return inner
}

// CreateTopic implements Transport via the controller seat.
func (c *ClusterClient) CreateTopic(name string, partitions int) error {
	return c.onCoordinator(func(l ClusterTransport) error { return l.CreateTopic(name, partitions) })
}

// DeleteTopic implements Transport via the controller seat.
func (c *ClusterClient) DeleteTopic(name string) error {
	return c.onCoordinator(func(l ClusterTransport) error { return l.DeleteTopic(name) })
}

// Partitions implements Transport from cluster metadata.
func (c *ClusterClient) Partitions(topic string) (int, error) {
	c.mu.RLock()
	states, ok := c.view.Partitions[topic]
	c.mu.RUnlock()
	if ok {
		return len(states), nil
	}
	if err := c.refreshView(); err != nil {
		return 0, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	states, ok = c.view.Partitions[topic]
	if !ok {
		return 0, fmt.Errorf("%w: %q", errUnknownTopic, topic)
	}
	return len(states), nil
}

// Produce implements Transport: routed to the partition leader, acked
// by the cluster's high-watermark. A produce retried across a leader
// crash may append twice (at-least-once); the output consumer's
// seen-set deduplicates, as with the remote transport.
func (c *ClusterClient) Produce(topic string, partition int, recs []Record) (int64, error) {
	var off int64
	err := c.onLeader(TopicPartition{Topic: topic, Partition: partition}, func(l ClusterTransport) error {
		var perr error
		off, perr = l.Produce(topic, partition, recs)
		return perr
	})
	return off, err
}

// Fetch implements Transport, routed to the partition leader.
func (c *ClusterClient) Fetch(topic string, partition int, offset int64, max int) ([]Record, error) {
	var recs []Record
	err := c.onLeader(TopicPartition{Topic: topic, Partition: partition}, func(l ClusterTransport) error {
		var ferr error
		recs, ferr = l.Fetch(topic, partition, offset, max)
		return ferr
	})
	return recs, err
}

// FetchMulti implements Transport by splitting the request set across
// partition leaders — one round trip per distinct leader, preserving
// per-partition record order.
func (c *ClusterClient) FetchMulti(topic string, reqs []FetchRequest, maxTotal int) ([]Record, error) {
	if maxTotal <= 0 {
		maxTotal = 1
	}
	byLeader := make(map[int][]FetchRequest)
	for _, req := range reqs {
		leader, err := c.leaderForRetry(TopicPartition{Topic: topic, Partition: req.Partition})
		if err != nil {
			return nil, err
		}
		byLeader[leader] = append(byLeader[leader], req)
	}
	leaders := make([]int, 0, len(byLeader))
	for id := range byLeader {
		leaders = append(leaders, id)
	}
	sort.Ints(leaders)
	var out []Record
	for _, id := range leaders {
		budget := maxTotal - len(out)
		if budget <= 0 {
			break
		}
		sub := byLeader[id]
		var recs []Record
		// Route through onLeader keyed by the first sub-request so a
		// leadership move mid-call re-resolves and retries this group.
		tp := TopicPartition{Topic: topic, Partition: sub[0].Partition}
		err := c.onLeader(tp, func(l ClusterTransport) error {
			var ferr error
			recs, ferr = l.FetchMulti(topic, sub, budget)
			return ferr
		})
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// Await implements Transport as a wait of at most a millisecond on the
// client's side: no node is asked, and it looks at no log. Positions
// spread over several leaders would need one parked wait per leader;
// consumers re-poll at this pace instead.
func (c *ClusterClient) Await(topic string, positions []FetchRequest, wait time.Duration, cancel <-chan struct{}) error {
	if wait <= 0 {
		return nil
	}
	t := time.NewTimer(min(wait, time.Millisecond))
	defer t.Stop()
	select {
	case <-t.C:
	case <-cancel:
	}
	return nil
}

// EndOffset implements Transport: the leader's high-watermark, the
// consumer-visible log end.
func (c *ClusterClient) EndOffset(topic string, partition int) (int64, error) {
	var off int64
	err := c.onLeader(TopicPartition{Topic: topic, Partition: partition}, func(l ClusterTransport) error {
		var oerr error
		off, oerr = l.EndOffset(topic, partition)
		return oerr
	})
	return off, err
}

// JoinGroup implements Transport via the coordinator seat.
func (c *ClusterClient) JoinGroup(group string, topics []string) (Assignment, error) {
	var a Assignment
	err := c.onCoordinator(func(l ClusterTransport) error {
		var jerr error
		a, jerr = l.JoinGroup(group, topics)
		return jerr
	})
	return a, err
}

// LeaveGroup implements Transport via the coordinator seat.
func (c *ClusterClient) LeaveGroup(group, memberID string) error {
	return c.onCoordinator(func(l ClusterTransport) error { return l.LeaveGroup(group, memberID) })
}

// FetchAssignment implements Transport via the coordinator seat. An
// errRebalance verdict passes through with its assignment so group
// consumers adopt it, exactly as on a single broker.
func (c *ClusterClient) FetchAssignment(group, memberID string, generation int) (Assignment, error) {
	var a Assignment
	err := c.onCoordinator(func(l ClusterTransport) error {
		var ferr error
		a, ferr = l.FetchAssignment(group, memberID, generation)
		return ferr
	})
	return a, err
}

// CommitOffset implements Transport via the coordinator seat.
func (c *ClusterClient) CommitOffset(group string, tp TopicPartition, offset int64) error {
	return c.onCoordinator(func(l ClusterTransport) error { return l.CommitOffset(group, tp, offset) })
}

// CommittedOffset implements Transport via the coordinator seat.
func (c *ClusterClient) CommittedOffset(group string, tp TopicPartition) (int64, error) {
	var off int64
	err := c.onCoordinator(func(l ClusterTransport) error {
		var oerr error
		off, oerr = l.CommittedOffset(group, tp)
		return oerr
	})
	return off, err
}

var _ Transport = (*ClusterClient)(nil)
