package broker

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"crayfish/internal/telemetry"
)

// Controller is the cluster's deterministic control plane — the role
// ZooKeeper/KRaft plays for Kafka, reduced to a single seat. It owns
// the authoritative ClusterView: it sweeps node liveness, shrinks and
// re-expands the ISR, elects the longest-log in-sync replica when a
// leader dies (bumping the leader epoch that fences the deposed one),
// and pushes every change to the surviving nodes. All transitions are
// serialized under one mutex, so concurrent failures resolve in a
// single deterministic order.
type Controller struct {
	rf          int
	nNodes      int
	tick        time.Duration
	coordinator *Broker
	peers       map[int]ClusterPeer // node id → link, fixed at construction

	mFailovers   *telemetry.Counter
	mLeaderEpoch *telemetry.Gauge
	metrics      *telemetry.Registry

	// tickMu serializes whole liveness sweeps (the ping phase runs
	// outside c.mu so a stalled peer cannot block topic admin or View).
	tickMu sync.Mutex

	mu   sync.Mutex
	view ClusterView
	// edited marks the change under construction: non-nil once it has
	// copied view.Partitions, true for each topic whose states it copied.
	edited   map[string]bool
	down     map[int]bool
	maxEpoch int
	started  bool
	closed   bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// Seat builds the controller of the cluster cfg describes over peers
// (every node id, node 0's included, to its link) and seats it on node
// 0, the consumer-group coordinator, so that topic admin there runs
// through it. Ids must be 0..len(peers)-1: partition placement is
// modular over the id space. NewCluster seats its node 0 with it, and
// brokerd the node 0 its process hosts. The caller starts it.
func (cfg ClusterConfig) Seat(node0 *Broker, peers map[int]ClusterPeer) (*Controller, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("broker: controller needs at least one peer")
	}
	members := make([]int, 0, len(peers))
	for id := range peers {
		if id < 0 || id >= len(peers) {
			return nil, fmt.Errorf("broker: controller peer ids must be 0..%d, got %d", len(peers)-1, id)
		}
		members = append(members, id)
	}
	sort.Ints(members)
	c := &Controller{
		rf:           max(cfg.ReplicationFactor, 1),
		nNodes:       len(peers),
		tick:         cfg.HeartbeatEvery,
		coordinator:  node0,
		mFailovers:   cfg.Broker.Metrics.Counter("broker.cluster.failovers"),
		mLeaderEpoch: cfg.Broker.Metrics.Gauge("broker.cluster.leader_epoch"),
		metrics:      cfg.Broker.Metrics,
		peers:        peers,
		down:         make(map[int]bool),
		stop:         make(chan struct{}),
		view: ClusterView{
			Version:    1,
			Members:    members,
			Partitions: make(map[string][]PartitionState),
		},
	}
	if c.tick <= 0 {
		c.tick = time.Millisecond
	}
	node0.mu.Lock()
	node0.ctrl = c
	node0.mu.Unlock()
	return c, nil
}

// Start launches the liveness sweep loop on a cluster of more than one
// node; a one-node cluster, whose one node hosts the controller, has no
// other leader to elect. The ticker is made here, on the caller's
// goroutine: the loop makes no timer per sweep, and the time package's
// one-time set-up on first use (≈ 50 allocations) runs before Start
// returns rather than whenever the loop is first scheduled.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.started || c.closed || c.nNodes < 2 {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	tick := time.NewTicker(c.tick)
	c.wg.Add(1)
	go c.run(tick)
}

// Close stops the sweep loop and waits for it.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	c.mu.Unlock()
	c.wg.Wait()
}

func (c *Controller) run(tick *time.Ticker) {
	defer c.wg.Done()
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		c.Tick()
	}
}

// View returns the published view, shared: the caller must not write
// to it.
//
//lint:allow deadexport clustertest's wire conformance suite reads it
func (c *Controller) View() ClusterView {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view
}

// CreateTopic places a topic's partitions across the cluster —
// round-robin preferred leaders, the next rf−1 nodes as followers —
// installs the partition states in the view, and pushes it, which makes
// every node materialize its local replica log. Implements the
// controller half of Transport topic admin.
func (c *Controller) CreateTopic(name string, partitions int) error {
	if partitions <= 0 {
		return fmt.Errorf("broker: topic %q needs at least one partition", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errClosed
	}
	if _, ok := c.view.Partitions[name]; ok {
		return fmt.Errorf("%w: %q", ErrTopicExists, name)
	}
	states := make([]PartitionState, partitions)
	for p := range states {
		replicas := placement(p, c.nNodes, c.rf)
		isr := make([]int, 0, len(replicas))
		for _, id := range replicas {
			if !c.down[id] {
				isr = append(isr, id)
			}
		}
		leader := -1
		if len(isr) > 0 {
			leader = isr[0] // the first live replica in placement order
		} else {
			// Every replica is down at creation: all logs are equally
			// (and trivially) empty, so the whole replica set is the
			// in-sync set a returning member may revive from.
			isr = append(isr, replicas...)
		}
		sort.Ints(isr)
		states[p] = PartitionState{Leader: leader, Epoch: 1, Replicas: replicas, ISR: isr}
		noteLeader(c.metrics, TopicPartition{Topic: name, Partition: p}, leader)
	}
	if c.maxEpoch < 1 {
		c.maxEpoch = 1
		c.mLeaderEpoch.Set(1)
	}
	c.partitionsLocked()[name] = states
	c.publishLocked()
	return nil
}

// DeleteTopic removes a topic cluster-wide via a view push.
func (c *Controller) DeleteTopic(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errClosed
	}
	if _, ok := c.view.Partitions[name]; !ok {
		return fmt.Errorf("%w: %q", errUnknownTopic, name)
	}
	delete(c.partitionsLocked(), name)
	c.publishLocked()
	return nil
}

// Tick runs one liveness sweep: ping every node, apply death and
// return transitions, re-expand the ISR with caught-up followers, and
// push the view when anything changed. The background loop calls it
// periodically; tests call it directly for step-by-step determinism.
// Pings run outside c.mu (a stalled peer must not block topic admin or
// View); transitions apply under it, in ascending node-id order, so
// concurrent failures still resolve deterministically.
//
//lint:allow deadexport clustertest's wire conformance suite steps it
func (c *Controller) Tick() {
	c.tickMu.Lock()
	defer c.tickMu.Unlock()
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return
	}
	// The peer links (ids 0..nNodes-1) are fixed at construction, so the
	// pings read them without c.mu.
	alive := make([]bool, c.nNodes)
	for id := range alive {
		alive[id] = c.peers[id].Ping() == nil
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	changed := false
	for id := range alive {
		switch {
		case !alive[id] && !c.down[id]:
			c.down[id] = true
			c.handleDeathLocked(id)
			changed = true
		case alive[id] && c.down[id]:
			delete(c.down, id)
			c.handleReturnLocked(id)
			changed = true
		}
	}
	if changed {
		c.publishLocked()
		c.coordinator.rebalanceGroups()
	}
	if c.expandISRLocked() {
		c.publishLocked()
	}
}

// handleDeathLocked removes a dead node from membership and every ISR,
// electing a replacement leader for each partition it led. Caller
// holds c.mu.
func (c *Controller) handleDeathLocked(id int) {
	c.view.Members = removeInt(c.view.Members, id)
	for _, topic := range c.topicsLocked() {
		for p, st := range c.view.Partitions[topic] {
			tp := TopicPartition{Topic: topic, Partition: p}
			if st.Leader == id {
				winner := c.electLocked(tp, removeInt(st.ISR, id))
				if winner >= 0 {
					st.ISR = removeInt(st.ISR, id)
					st.Leader = winner
				} else {
					// No electable in-sync survivor: the partition goes
					// offline. The ISR is frozen as-is — dead leader
					// included — because it is the last set known to
					// hold the acked prefix, and only its members may
					// revive the partition (no unclean election).
					st.Leader = -1
				}
				c.newTermLocked(tp, &st)
			} else if st.Leader >= 0 && slices.Contains(st.ISR, id) {
				// A follower died: shrink the ISR so the leader's
				// high-watermark derivation stops waiting on it. An
				// offline partition's frozen ISR stays untouched.
				st.ISR = removeInt(st.ISR, id)
			} else {
				continue
			}
			c.setStateLocked(tp, st)
		}
	}
}

// newTermLocked bumps a partition's leader epoch after an election and
// books the failover. Caller holds c.mu.
func (c *Controller) newTermLocked(tp TopicPartition, st *PartitionState) {
	st.Epoch++
	if st.Epoch > c.maxEpoch {
		c.maxEpoch = st.Epoch
		c.mLeaderEpoch.Set(int64(c.maxEpoch))
	}
	c.mFailovers.Inc()
	noteLeader(c.metrics, tp, st.Leader)
}

// electLocked picks the new leader from the surviving in-sync set: the
// replica with the longest log, ties to the lowest id. Every ISR
// member stores the full acked prefix (that is what the high-watermark
// certifies), so any choice preserves acks; the longest log also
// preserves the most unacked records and lets every other ISR member
// resume as a clean prefix without truncation. Returns -1 when no
// in-sync replica survives (partition offline until one returns).
// Caller holds c.mu.
func (c *Controller) electLocked(tp TopicPartition, isr []int) int {
	winner, winnerEnd := -1, int64(-1)
	for _, id := range isr { // isr is sorted: ties resolve to lowest id
		if c.down[id] {
			continue
		}
		end, err := c.peers[id].LogEnd(tp)
		if err != nil {
			continue
		}
		if end > winnerEnd {
			winner, winnerEnd = id, end
		}
	}
	return winner
}

// handleReturnLocked re-admits a restarted node into membership — but
// NOT into any ISR: a returner's log may be missing records acked
// while it was down, so it re-enters an ISR only through the leader's
// caught-up confirmation (expandISRLocked). The one exception is an
// offline partition whose frozen last-in-sync set contains the
// returner: that set is the only one known to hold the acked prefix,
// so its member's return revives the partition with a bumped epoch.
// Caller holds c.mu.
func (c *Controller) handleReturnLocked(id int) {
	c.view.Members = insertSorted(c.view.Members, id)
	for _, topic := range c.topicsLocked() {
		for p, st := range c.view.Partitions[topic] {
			if st.Leader >= 0 || !slices.Contains(st.ISR, id) {
				continue
			}
			live := slices.DeleteFunc(slices.Clone(st.ISR), func(r int) bool { return c.down[r] })
			tp := TopicPartition{Topic: topic, Partition: p}
			winner := c.electLocked(tp, live)
			if winner < 0 {
				continue // still offline; a later return retries
			}
			st.ISR = live
			st.Leader = winner
			c.newTermLocked(tp, &st)
			c.setStateLocked(tp, st)
		}
	}
}

// expandISRLocked is the re-admission half of the ISR lifecycle: for
// every live replica outside its partition's ISR, ask the leader to
// admit it. The leader confirms only when the follower's replica
// fetches cover the high-watermark, adding it to its own in-sync
// derivation under the same lock — so the watermark can never advance
// past the new member between the check and this view update. Returns
// true when any ISR grew. Caller holds c.mu.
func (c *Controller) expandISRLocked() bool {
	changed := false
	for _, topic := range c.topicsLocked() {
		for p, st := range c.view.Partitions[topic] {
			if st.Leader < 0 || c.down[st.Leader] || len(st.ISR) >= len(st.Replicas) {
				continue
			}
			tp := TopicPartition{Topic: topic, Partition: p}
			grew := false
			for _, r := range st.Replicas {
				if r == st.Leader || c.down[r] || slices.Contains(st.ISR, r) {
					continue
				}
				ok, err := c.peers[st.Leader].AdmitFollower(tp, r, st.Epoch)
				if err != nil || !ok {
					continue // not caught up yet; next sweep retries
				}
				st.ISR = insertSorted(st.ISR, r)
				grew = true
			}
			if grew {
				c.setStateLocked(tp, st)
				changed = true
			}
		}
	}
	return changed
}

// topicsLocked lists the view's topics in order, so that transitions
// apply deterministically. Caller holds c.mu.
func (c *Controller) topicsLocked() []string {
	topics := make([]string, 0, len(c.view.Partitions))
	for t := range c.view.Partitions {
		topics = append(topics, t)
	}
	sort.Strings(topics)
	return topics
}

// partitionsLocked returns the Partitions map of the view under
// construction, copying the published one on the change's first write.
// A published view is shared by every node and client that holds it,
// and nobody writes to it, so a change builds the next view beside it:
// a new Partitions map, new state slices for the topics it edits, new
// Members and ISR slices. Caller holds c.mu.
func (c *Controller) partitionsLocked() map[string][]PartitionState {
	if c.edited == nil {
		c.view.Partitions = maps.Clone(c.view.Partitions)
		c.edited = make(map[string]bool)
	}
	return c.view.Partitions
}

// setStateLocked writes one partition's state into the view under
// construction, copying the topic's published states on the change's
// first write to them. Caller holds c.mu.
func (c *Controller) setStateLocked(tp TopicPartition, st PartitionState) {
	parts := c.partitionsLocked()
	states := parts[tp.Topic]
	if !c.edited[tp.Topic] {
		states = slices.Clone(states)
		parts[tp.Topic] = states
		c.edited[tp.Topic] = true
	}
	states[tp.Partition] = st
}

// publishLocked stamps the view under construction with the next
// version and pushes that one value to every live node. A push that
// fails (the node died since its last ping) is dropped; the next sweep
// handles the death. Caller holds c.mu.
func (c *Controller) publishLocked() {
	c.view.Version++
	c.edited = nil
	for _, id := range c.view.Members {
		_ = c.peers[id].PushView(c.view)
	}
}
