package broker

import (
	"fmt"
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
	links []Transport
	retry *resilience.Retry

	mu   sync.RWMutex
	view ClusterView
}

// NewClusterClient builds a client over one link per node, indexed by
// node id (links[0] must be the coordinator/controller seat). retry
// nil gets a failover-sized default: tight backoff, wall-clock bounded
// generously past leader-election latency.
func NewClusterClient(links []Transport, retry *resilience.Retry) (*ClusterClient, error) {
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
// refreshing once when the view does not cover the partition yet. Every
// error is retryable: an unknown or offline partition, or a leader with
// no link, may come right with the next view (a restarting replica may
// revive the partition within the retry budget).
func (c *ClusterClient) leaderFor(tp TopicPartition) (int, error) {
	c.mu.RLock()
	leader, err := c.view.leader(tp)
	c.mu.RUnlock()
	if err != nil {
		if err = c.refreshView(); err == nil {
			c.mu.RLock()
			leader, err = c.view.leader(tp)
			c.mu.RUnlock()
		}
	}
	if err == nil && leader >= len(c.links) {
		err = fmt.Errorf("broker: leader %d of %s/%d has no link", leader, tp.Topic, tp.Partition)
	}
	if err != nil {
		return 0, resilience.MarkRetryable(err)
	}
	return leader, nil
}

// leadersOf appends the leader of each request's partition to leaders.
func (c *ClusterClient) leadersOf(topic string, reqs []FetchRequest, leaders []int) ([]int, error) {
	for _, req := range reqs {
		id, err := c.leaderFor(TopicPartition{Topic: topic, Partition: req.Partition})
		if err != nil {
			return nil, err
		}
		leaders = append(leaders, id)
	}
	return leaders, nil
}

// ledBy is the requests whose partitions node id leads, leaders[i]
// being the leader of reqs[i]: reqs itself when id leads them all, so a
// single-leader poll copies nothing.
func ledBy(reqs []FetchRequest, leaders []int, id int) []FetchRequest {
	n := 0
	for _, l := range leaders {
		if l == id {
			n++
		}
	}
	if n == 0 || n == len(reqs) {
		return reqs[:n]
	}
	sub := make([]FetchRequest, 0, n)
	for i, req := range reqs {
		if leaders[i] == id {
			sub = append(sub, req)
		}
	}
	return sub
}

// onLeader runs fn against the partition leader's link, refreshing
// metadata and re-routing on every retryable routing failure.
func (c *ClusterClient) onLeader(tp TopicPartition, fn func(link Transport) error) error {
	return resilience.Run(c.retry, nil, func() error {
		leader, err := c.leaderFor(tp)
		if err != nil {
			return err
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
func (c *ClusterClient) onCoordinator(fn func(link Transport) error) error {
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
	return c.onCoordinator(func(l Transport) error { return l.CreateTopic(name, partitions) })
}

// DeleteTopic implements Transport via the controller seat.
func (c *ClusterClient) DeleteTopic(name string) error {
	return c.onCoordinator(func(l Transport) error { return l.DeleteTopic(name) })
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
	err := c.onLeader(TopicPartition{Topic: topic, Partition: partition}, func(l Transport) error {
		var perr error
		off, perr = l.Produce(topic, partition, recs)
		return perr
	})
	return off, err
}

// Fetch implements Transport, routed to the partition leader.
func (c *ClusterClient) Fetch(topic string, partition int, offset int64, max int) ([]Record, error) {
	return c.FetchMultiInto(topic, []FetchRequest{{Partition: partition, Offset: offset}}, max, nil)
}

// FetchMulti implements Transport.
func (c *ClusterClient) FetchMulti(topic string, reqs []FetchRequest, maxTotal int) ([]Record, error) {
	return c.FetchMultiInto(topic, reqs, maxTotal, nil)
}

// FetchMultiInto implements Transport by splitting the request set
// across partition leaders — one round trip per distinct leader, in
// node order, preserving per-partition record order — and appending
// into out. Every attempt splits afresh from the view it reads, so a
// retry after a leadership move re-routes each partition on its own. A
// failed attempt's records are dropped: positions advance only on
// records a fetch returns, so the retry reads them again.
func (c *ClusterClient) FetchMultiInto(topic string, reqs []FetchRequest, maxTotal int, out []Record) ([]Record, error) {
	if maxTotal <= 0 {
		maxTotal = 1
	}
	base := len(out)
	err := resilience.Run(c.retry, nil, func() error {
		out = out[:base]
		var buf [16]int
		leaders, err := c.leadersOf(topic, reqs, buf[:0])
		for id := 0; id < len(c.links) && err == nil && len(out)-base < maxTotal; id++ {
			if group := ledBy(reqs, leaders, id); len(group) > 0 {
				out, err = c.links[id].FetchMultiInto(topic, group, maxTotal-(len(out)-base), out)
			}
		}
		if err != nil && resilience.IsRetryable(err) {
			_ = c.refreshView()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Await implements Transport by parking at a leader: the leader of the
// first position, asked about the positions it leads — a node answers
// at once for a partition it does not lead. With no positions it parks
// at the coordinator seat, as a single broker parks with none. When one
// leader leads every position the park lasts the full wait; when others
// lead some, at most a millisecond, so a record that arrives at another
// leader waits no longer than one re-poll. A retryable failure (the
// leader moved or died, the link broke) refreshes the view and returns
// nil: the fetch that follows re-routes.
func (c *ClusterClient) Await(topic string, positions []FetchRequest, wait time.Duration, cancel <-chan struct{}) error {
	if wait <= 0 {
		return nil
	}
	var buf [16]int
	leaders, err := c.leadersOf(topic, positions, buf[:0])
	if err == nil {
		leader, mine := 0, positions
		if len(leaders) > 0 {
			leader = leaders[0]
			if mine = ledBy(positions, leaders, leader); len(mine) < len(positions) {
				wait = min(wait, time.Millisecond)
			}
		}
		err = c.links[leader].Await(topic, mine, wait, cancel)
	}
	if err != nil && resilience.IsRetryable(err) {
		_ = c.refreshView()
		return nil
	}
	return err
}

// EndOffset implements Transport: the leader's high-watermark, the
// consumer-visible log end.
func (c *ClusterClient) EndOffset(topic string, partition int) (int64, error) {
	var off int64
	err := c.onLeader(TopicPartition{Topic: topic, Partition: partition}, func(l Transport) error {
		var oerr error
		off, oerr = l.EndOffset(topic, partition)
		return oerr
	})
	return off, err
}

// JoinGroup implements Transport via the coordinator seat.
func (c *ClusterClient) JoinGroup(group string, topics []string) (Assignment, error) {
	var a Assignment
	err := c.onCoordinator(func(l Transport) error {
		var jerr error
		a, jerr = l.JoinGroup(group, topics)
		return jerr
	})
	return a, err
}

// LeaveGroup implements Transport via the coordinator seat.
func (c *ClusterClient) LeaveGroup(group, memberID string) error {
	return c.onCoordinator(func(l Transport) error { return l.LeaveGroup(group, memberID) })
}

// FetchAssignment implements Transport via the coordinator seat. An
// errRebalance verdict passes through with its assignment so group
// consumers adopt it, exactly as on a single broker.
func (c *ClusterClient) FetchAssignment(group, memberID string, generation int) (Assignment, error) {
	var a Assignment
	err := c.onCoordinator(func(l Transport) error {
		var ferr error
		a, ferr = l.FetchAssignment(group, memberID, generation)
		return ferr
	})
	return a, err
}

// CommitOffset implements Transport via the coordinator seat.
func (c *ClusterClient) CommitOffset(group string, tp TopicPartition, offset int64) error {
	return c.onCoordinator(func(l Transport) error { return l.CommitOffset(group, tp, offset) })
}

// CommittedOffset implements Transport via the coordinator seat.
func (c *ClusterClient) CommittedOffset(group string, tp TopicPartition) (int64, error) {
	var off int64
	err := c.onCoordinator(func(l Transport) error {
		var oerr error
		off, oerr = l.CommittedOffset(group, tp)
		return oerr
	})
	return off, err
}

// ClusterView implements Transport: the freshest view a node answers
// with, shared as the node holds it.
func (c *ClusterClient) ClusterView() (ClusterView, error) {
	if err := c.refreshView(); err != nil {
		return ClusterView{}, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.view, nil
}

var _ Transport = (*ClusterClient)(nil)
