package broker

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"crayfish/internal/resilience"
	"crayfish/internal/telemetry"
)

// NodeConfig configures one cluster broker node.
type NodeConfig struct {
	// ID is the node's cluster-wide identity; its fault-plan target name
	// is "node-<ID>".
	ID int
	// Broker configures the node's local log storage (topics, groups,
	// metrics).
	Broker Config
	// ackTimeout bounds how long a produce waits for the high-watermark
	// to cover it before failing retryably (default 5s) — Kafka's
	// request.timeout.ms under acks=all.
	ackTimeout time.Duration
	// replicaPoll is the follower fetch loop's idle re-poll interval
	// (default 1ms, matching the cluster transports' Await).
	replicaPoll time.Duration
}

// replicaBatch caps records per replica fetch.
const replicaBatch = 512

// fetchTarget identifies whom a follower fetcher is replicating from.
type fetchTarget struct {
	leader int
	epoch  int
}

// fetcher is one running follower catch-up loop.
type fetcher struct {
	stop   chan struct{}
	target fetchTarget
}

// replState is one node's replication belief for one partition: who
// leads at which epoch, the in-sync set, and the high-watermark. The
// leader additionally tracks each follower's log end (learned from
// replica-fetch offsets) to derive the high-watermark. Lock ordering:
// Node.mu → replState.mu → Broker locks; nothing locks upward.
type replState struct {
	mu       sync.Mutex
	leader   int
	epoch    int
	replicas []int
	isr      []int
	isLeader bool
	// hw is the high-watermark: offsets below it are stored on every
	// ISR member, so they are the acked, consumer-visible prefix. It
	// never regresses.
	hw int64
	// hwCh is closed and re-armed each time hw advances (the broker's
	// capture-then-check signal pattern); produce ack waiters park on it.
	hwCh chan struct{}
	// followerEnd is leader-only: node id → log end implied by that
	// follower's latest replica fetch.
	followerEnd map[int]int64
}

func newReplState() *replState {
	return &replState{leader: -1, hwCh: make(chan struct{}), followerEnd: make(map[int]int64)}
}

// advanceHW recomputes the high-watermark from the local log end and
// the ISR followers' known ends, signalling waiters when it moves.
// Caller holds rs.mu; lag may be nil.
func (rs *replState) advanceHW(localEnd int64, selfID int, lag *telemetry.Gauge) {
	m := localEnd
	for _, id := range rs.isr {
		if id == selfID {
			continue
		}
		if e := rs.followerEnd[id]; e < m {
			m = e
		}
	}
	if m > rs.hw {
		rs.hw = m
		close(rs.hwCh)
		rs.hwCh = make(chan struct{})
	}
	lag.Set(localEnd - rs.hw)
}

// Node is one broker instance inside a replicated cluster: a local
// Broker log plus the replication role machinery — leadership gating
// with epoch fencing, high-watermark ack tracking when leading, and
// follower catch-up fetchers when following. Crash/Restart model a
// process kill that preserves the log ("disk survives"), which is what
// lets a restarted node rejoin and catch up.
type Node struct {
	id          int
	name        string
	b           *Broker
	ackTimeout  time.Duration
	replicaPoll time.Duration
	metrics     *telemetry.Registry
	mReplicaLag *telemetry.Gauge

	ctrl *Controller // set on the controller node; routes topic admin

	mu       sync.Mutex
	alive    bool
	closed   bool
	crashed  chan struct{} // closed while the node is down
	view     ClusterView
	peers    map[int]ClusterPeer
	parts    map[TopicPartition]*replState
	fetchers map[TopicPartition]*fetcher
	wg       sync.WaitGroup
}

// NewNode builds a cluster node around a fresh local Broker.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ackTimeout <= 0 {
		cfg.ackTimeout = 5 * time.Second
	}
	if cfg.replicaPoll <= 0 {
		cfg.replicaPoll = time.Millisecond
	}
	n := &Node{
		id:          cfg.ID,
		name:        fmt.Sprintf("node-%d", cfg.ID),
		b:           New(cfg.Broker),
		ackTimeout:  cfg.ackTimeout,
		replicaPoll: cfg.replicaPoll,
		metrics:     cfg.Broker.Metrics,
		mReplicaLag: cfg.Broker.Metrics.Gauge("broker.cluster.replica_lag"),
		alive:       true,
		crashed:     make(chan struct{}),
		peers:       make(map[int]ClusterPeer),
		parts:       make(map[TopicPartition]*replState),
		fetchers:    make(map[TopicPartition]*fetcher),
	}
	return n, nil
}

// ID returns the node's cluster id.
func (n *Node) ID() int { return n.id }

// Name returns the node's fault-plan target name, "node-<id>".
func (n *Node) Name() string { return n.name }

// Broker exposes the node's local log storage (the coordinator seat's
// group state lives here).
func (n *Node) Broker() *Broker { return n.b }

// SetPeer installs or replaces a peer link; brokerd uses it to finish
// wiring once all peer addresses resolve.
func (n *Node) SetPeer(id int, p ClusterPeer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[id] = p
}

// AttachController marks this node as the controller seat so topic
// admin ops route into it. Local clusters and brokerd both call it on
// node 0 right after building the controller.
func (n *Node) AttachController(c *Controller) { n.ctrl = c }

// nodeDown wraps errNodeDown retryably with the node's name.
func (n *Node) nodeDown() error {
	return resilience.MarkRetryable(fmt.Errorf("%w: %s", errNodeDown, n.name))
}

// gate rejects calls while the node is down or closed.
func (n *Node) gate() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errClosed
	}
	if !n.alive {
		return n.nodeDown()
	}
	return nil
}

func (n *Node) state(tp TopicPartition) *replState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.parts[tp]
}

func (n *Node) peerLink(id int) ClusterPeer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peers[id]
}

// notLeader builds the retryable re-route error for a misrouted call.
func (rs *replState) notLeader(tp TopicPartition) error {
	return resilience.MarkRetryable(&NotLeaderError{TP: tp, Leader: rs.leader, Epoch: rs.epoch})
}

// Crash takes the node down: clients and peers get retryable
// errNodeDown, follower fetchers stop, and produce ack waiters wake
// immediately instead of riding out their timers. The local log and
// group state survive, modelling a process kill over durable storage.
//
//lint:allow deadexport clustertest's wire conformance suite kills nodes
func (n *Node) Crash() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive || n.closed {
		return
	}
	n.alive = false
	close(n.crashed)
	n.stopFetchersLocked()
}

// Restart brings a crashed node back. It resumes with its pre-crash
// view — possibly stale — and starts follower fetchers from it; the
// controller's next push delivers the current view, demoting (and
// truncating) it if leadership moved while it was down.
//
//lint:allow deadexport clustertest's wire conformance suite revives nodes
func (n *Node) Restart() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.alive || n.closed {
		return
	}
	n.alive = true
	n.crashed = make(chan struct{})
	n.reconcileFetchersLocked()
}

// Close shuts the node down permanently and waits for its goroutines.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	if n.alive {
		n.alive = false
		close(n.crashed)
	}
	n.stopFetchersLocked()
	n.mu.Unlock()
	n.wg.Wait()
	n.b.Close()
}

func (n *Node) stopFetchersLocked() {
	for tp, f := range n.fetchers {
		close(f.stop)
		delete(n.fetchers, tp)
	}
}

// Ping implements ClusterPeer: the controller's liveness probe.
func (n *Node) Ping() error { return n.gate() }

// LogEnd implements ClusterPeer: the raw local log end (not the
// high-watermark), which is the controller's election key.
func (n *Node) LogEnd(tp TopicPartition) (int64, error) {
	if err := n.gate(); err != nil {
		return 0, err
	}
	return n.b.EndOffset(tp.Topic, tp.Partition)
}

// ClusterView implements ClusterTransport: the node's current metadata
// copy, for client-side leader discovery.
func (n *Node) ClusterView() (ClusterView, error) {
	if err := n.gate(); err != nil {
		return ClusterView{}, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.clone(), nil
}

// PushView implements ClusterPeer: the controller's metadata push.
// The node creates any topics it does not hold yet, adopts the new
// leadership/ISR state per partition, truncates its log to the old
// high-watermark when demoted from leader (discarding only unacked
// records — the acked prefix is identical on every ISR member), and
// reconciles its follower fetchers.
func (n *Node) PushView(v ClusterView) error {
	if err := n.gate(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if v.Version <= n.view.Version {
		// Stale push: reject before creating anything, so a delayed old
		// view cannot resurrect a topic a newer view already deleted.
		return nil
	}
	for topic, states := range v.Partitions {
		if _, err := n.b.Partitions(topic); err != nil {
			if cerr := n.b.CreateTopic(topic, len(states)); cerr != nil && !errors.Is(cerr, ErrTopicExists) {
				return cerr
			}
		}
	}
	n.view = v.clone()
	for topic, states := range v.Partitions {
		for p, st := range states {
			tp := TopicPartition{Topic: topic, Partition: p}
			rs := n.parts[tp]
			if rs == nil {
				rs = newReplState()
				n.parts[tp] = rs
			}
			localEnd, _ := n.b.EndOffset(topic, p)
			rs.mu.Lock()
			oldHW := rs.hw
			epochMoved := st.Epoch > rs.epoch
			if epochMoved {
				rs.epoch = st.Epoch
			}
			rs.leader = st.Leader
			rs.replicas = append([]int(nil), st.Replicas...)
			rs.isr = append([]int(nil), st.ISR...)
			rs.isLeader = st.Leader == n.id
			leadsNow := rs.isLeader
			if rs.isLeader {
				if epochMoved || rs.followerEnd == nil {
					// A fresh leadership term forgets follower progress
					// learned in earlier terms — a returner may have
					// truncated since, so old ends could overstate what
					// it holds and inflate the high-watermark.
					rs.followerEnd = make(map[int]int64)
				}
				// ISR changes move the watermark derivation: recompute
				// so a shrink unblocks waiting produces immediately.
				rs.advanceHW(localEnd, n.id, n.mReplicaLag)
			}
			rs.mu.Unlock()
			// Publish adopted leadership into this node's own registry so
			// every node's /metrics answers "who leads partition p", not
			// just the controller's (followers are what you can still
			// scrape mid-failover).
			n.metrics.Gauge("broker.cluster.leader." + tpKey(tp)).Set(int64(st.Leader))
			if epochMoved && !leadsNow {
				// New term, not leading it: drop everything this node
				// never saw acked so its log rejoins the new leader's as
				// a clean prefix before re-fetching — the old tail may
				// hold records the new leader assigns differently.
				_ = n.b.truncateTo(topic, p, oldHW)
			}
		}
	}
	// Drop state for topics the view no longer carries (cluster-wide
	// topic deletion).
	for tp := range n.parts {
		if _, ok := v.Partitions[tp.Topic]; !ok {
			delete(n.parts, tp)
			_ = n.b.DeleteTopic(tp.Topic)
		}
	}
	n.reconcileFetchersLocked()
	return nil
}

// reconcileFetchersLocked aligns running follower fetch loops with the
// current view: one fetcher per partition this node follows, keyed to
// the leader and epoch it should be fetching from. Caller holds n.mu.
func (n *Node) reconcileFetchersLocked() {
	want := make(map[TopicPartition]fetchTarget)
	for tp, rs := range n.parts {
		rs.mu.Lock()
		if !rs.isLeader && rs.leader >= 0 && rs.leader != n.id && containsInt(rs.replicas, n.id) {
			want[tp] = fetchTarget{leader: rs.leader, epoch: rs.epoch}
		}
		rs.mu.Unlock()
	}
	for tp, f := range n.fetchers {
		if w, ok := want[tp]; !ok || w != f.target {
			close(f.stop)
			delete(n.fetchers, tp)
		}
	}
	if !n.alive {
		return
	}
	for tp, w := range want {
		if _, ok := n.fetchers[tp]; ok {
			continue
		}
		f := &fetcher{stop: make(chan struct{}), target: w}
		n.fetchers[tp] = f
		n.wg.Add(1)
		go n.runFetcher(tp, w, f.stop)
	}
}

// runFetcher is the follower catch-up loop for one partition: fetch
// from the leader at the local log end, append verbatim, adopt the
// leader's high-watermark, and idle-poll when caught up. Errors —
// leader down, fenced epoch — are ridden out with the same idle poll;
// the controller's next view push retargets or stops the loop.
func (n *Node) runFetcher(tp TopicPartition, target fetchTarget, stop chan struct{}) {
	defer n.wg.Done()
	var link ClusterPeer
	for {
		select {
		case <-stop:
			return
		default:
		}
		// Looked up until found: a view can arrive before the leader's
		// link does (brokerd nodes start in any order).
		if link == nil {
			link = n.peerLink(target.leader)
		}
		if link == nil {
			if !n.fetchWait(stop) {
				return
			}
			continue
		}
		end, err := n.b.EndOffset(tp.Topic, tp.Partition)
		if err != nil {
			if !n.fetchWait(stop) {
				return
			}
			continue
		}
		resp, err := link.ReplicaFetch(replicaFetchRequest{
			Topic:     tp.Topic,
			Partition: tp.Partition,
			Offset:    end,
			Max:       replicaBatch,
			From:      n.id,
			Epoch:     target.epoch,
		})
		if err != nil {
			if !n.fetchWait(stop) {
				return
			}
			continue
		}
		if len(resp.Records) > 0 {
			if rs := n.state(tp); rs != nil {
				rs.mu.Lock()
				moved := rs.epoch != target.epoch
				rs.mu.Unlock()
				if moved {
					// The view moved past this fetch target while the
					// batch was in flight: drop it rather than append
					// records from a superseded term.
					return
				}
			}
			if err := n.b.replicate(tp.Topic, tp.Partition, resp.Records); err != nil {
				if !n.fetchWait(stop) {
					return
				}
				continue
			}
		}
		n.adoptLeaderHW(tp, resp.HW)
		if len(resp.Records) == 0 {
			if !n.fetchWait(stop) {
				return
			}
		}
	}
}

// fetchWait parks the fetcher for one idle-poll interval; false means
// the fetcher was stopped.
func (n *Node) fetchWait(stop chan struct{}) bool {
	t := time.NewTimer(n.replicaPoll)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// adoptLeaderHW installs the high-watermark a follower learned from a
// replica-fetch response, clamped to its own log end (a follower can
// only vouch for records it stores).
func (n *Node) adoptLeaderHW(tp TopicPartition, hw int64) {
	rs := n.state(tp)
	if rs == nil {
		return
	}
	end, err := n.b.EndOffset(tp.Topic, tp.Partition)
	if err != nil {
		return
	}
	if hw > end {
		hw = end
	}
	rs.mu.Lock()
	if hw > rs.hw {
		rs.hw = hw
		close(rs.hwCh)
		rs.hwCh = make(chan struct{})
	}
	rs.mu.Unlock()
}

// ReplicaFetch implements ClusterPeer: the leader side of follower
// catch-up. The request's offset doubles as the follower's replication
// progress (it holds everything below), which drives the high-watermark
// derivation; the epoch check fences both directions — a stale follower
// is refused, a newer epoch self-demotes this stale leader.
func (n *Node) ReplicaFetch(req replicaFetchRequest) (replicaFetchResponse, error) {
	if err := n.gate(); err != nil {
		return replicaFetchResponse{}, err
	}
	tp := TopicPartition{Topic: req.Topic, Partition: req.Partition}
	rs := n.state(tp)
	if rs == nil {
		return replicaFetchResponse{}, fmt.Errorf("%w: %s/%d", errUnknownPartition, req.Topic, req.Partition)
	}
	localEnd, err := n.b.EndOffset(req.Topic, req.Partition)
	if err != nil {
		return replicaFetchResponse{}, err
	}
	rs.mu.Lock()
	if !rs.isLeader {
		err := rs.notLeader(tp)
		rs.mu.Unlock()
		return replicaFetchResponse{}, err
	}
	if req.Epoch < rs.epoch {
		epoch := rs.epoch
		rs.mu.Unlock()
		return replicaFetchResponse{}, resilience.MarkRetryable(fmt.Errorf("%w: follower %d at epoch %d, leader at %d", errFencedEpoch, req.From, req.Epoch, epoch))
	}
	if req.Epoch > rs.epoch {
		// A follower already speaks a newer epoch: this node's
		// leadership was revoked while it was out of touch. Self-demote;
		// the controller's view push fills in the real leader.
		rs.isLeader = false
		rs.leader = -1
		rs.epoch = req.Epoch
		rs.mu.Unlock()
		return replicaFetchResponse{}, resilience.MarkRetryable(fmt.Errorf("%w: leader superseded at epoch %d", errFencedEpoch, req.Epoch))
	}
	if req.Offset > rs.followerEnd[req.From] {
		rs.followerEnd[req.From] = req.Offset
	}
	rs.advanceHW(localEnd, n.id, n.mReplicaLag)
	hw, epoch := rs.hw, rs.epoch
	rs.mu.Unlock()
	recs, err := n.b.replicaRead(req.Topic, req.Partition, req.Offset, req.Max)
	if err != nil {
		return replicaFetchResponse{}, err
	}
	return replicaFetchResponse{Records: recs, HW: hw, Epoch: epoch}, nil
}

// AdmitFollower implements ClusterPeer: the leader-side gate of ISR
// re-admission. The caught-up check and the ISR insert happen under the
// same lock that derives the high-watermark, so the watermark cannot
// advance past the new member between its last fetch and the
// controller's view update — the invariant that every ISR member holds
// the acked prefix survives the expansion. A follower that has not
// fetched this term, or whose fetches stop short of the watermark, is
// refused without error (the controller's next sweep retries).
func (n *Node) AdmitFollower(tp TopicPartition, follower, epoch int) (bool, error) {
	if err := n.gate(); err != nil {
		return false, err
	}
	rs := n.state(tp)
	if rs == nil {
		return false, fmt.Errorf("%w: %s/%d", errUnknownPartition, tp.Topic, tp.Partition)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.isLeader || rs.epoch != epoch || !containsInt(rs.replicas, follower) {
		return false, nil
	}
	if containsInt(rs.isr, follower) {
		// Already in the local derivation (an earlier admission whose
		// view push was lost): confirm so the controller converges.
		return true, nil
	}
	end, fetched := rs.followerEnd[follower]
	if !fetched || end < rs.hw {
		return false, nil
	}
	rs.isr = insertSorted(rs.isr, follower)
	return true, nil
}

// Produce implements Transport with acks=all semantics: the append is
// accepted only on the partition leader and the call blocks until the
// high-watermark covers it — every ISR member stores the records — so
// an acked produce survives any single leader crash. Partitions without
// replication state (topics created directly on the local broker) pass
// straight through.
func (n *Node) Produce(topic string, partition int, recs []Record) (int64, error) {
	if err := n.gate(); err != nil {
		return 0, err
	}
	tp := TopicPartition{Topic: topic, Partition: partition}
	rs := n.state(tp)
	if rs == nil {
		return n.b.Produce(topic, partition, recs)
	}
	// The leadership check and the append stay under one rs.mu hold: a
	// concurrent demotion (PushView flips isLeader under rs.mu, then
	// truncates to the old high-watermark) either lands before the
	// check — rejecting the produce — or after the append — truncating
	// the still-unacked tail — so no record can survive in a follower
	// log at an offset the new leader will assign to different data.
	rs.mu.Lock()
	if !rs.isLeader {
		err := rs.notLeader(tp)
		rs.mu.Unlock()
		return 0, err
	}
	base, err := n.b.Produce(topic, partition, recs)
	if err != nil {
		rs.mu.Unlock()
		return 0, err
	}
	target, err := n.b.EndOffset(topic, partition)
	rs.mu.Unlock()
	if err != nil {
		return 0, err
	}
	n.mu.Lock()
	crashed := n.crashed
	n.mu.Unlock()
	timer := time.NewTimer(n.ackTimeout)
	defer timer.Stop()
	for {
		rs.mu.Lock()
		if rs.isLeader {
			// Covers the ISR=={self} case and re-derives after appends.
			rs.advanceHW(target, n.id, n.mReplicaLag)
		}
		if rs.hw >= target {
			rs.mu.Unlock()
			return base, nil
		}
		if !rs.isLeader {
			err := rs.notLeader(tp)
			rs.mu.Unlock()
			return 0, err
		}
		ch := rs.hwCh
		rs.mu.Unlock()
		select {
		case <-ch:
		case <-crashed:
			return 0, n.nodeDown()
		case <-timer.C:
			return 0, resilience.MarkRetryable(fmt.Errorf("%w: %s/%d waiting for hw %d", errAckTimeout, topic, partition, target))
		}
	}
}

// visibleRange returns the high-watermark clamp for a consumer read,
// or an error when this node does not lead the partition.
func (n *Node) visibleRange(tp TopicPartition) (int64, bool, error) {
	rs := n.state(tp)
	if rs == nil {
		return 0, false, nil // unreplicated partition: no clamp
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.isLeader {
		return 0, false, rs.notLeader(tp)
	}
	return rs.hw, true, nil
}

// Fetch implements Transport, serving only below the high-watermark:
// records a leader crash could still lose are invisible to consumers,
// which is what makes failover consumer-transparent.
func (n *Node) Fetch(topic string, partition int, offset int64, max int) ([]Record, error) {
	if err := n.gate(); err != nil {
		return nil, err
	}
	hw, clamped, err := n.visibleRange(TopicPartition{Topic: topic, Partition: partition})
	if err != nil {
		return nil, err
	}
	if clamped {
		if offset >= hw {
			return nil, nil
		}
		if int64(max) > hw-offset {
			max = int(hw - offset)
		}
	}
	return n.b.Fetch(topic, partition, offset, max)
}

// FetchMulti implements Transport with the same high-watermark clamp
// per partition.
func (n *Node) FetchMulti(topic string, reqs []FetchRequest, maxTotal int) ([]Record, error) {
	return n.FetchMultiInto(topic, reqs, maxTotal, nil)
}

// FetchMultiInto implements MultiFetcherInto: FetchMulti appending into
// out, which is how the TCP server reads a node without a slice per
// fetch.
func (n *Node) FetchMultiInto(topic string, reqs []FetchRequest, maxTotal int, out []Record) ([]Record, error) {
	if err := n.gate(); err != nil {
		return nil, err
	}
	if maxTotal <= 0 {
		maxTotal = 1
	}
	base := len(out)
	for _, req := range reqs {
		budget := maxTotal - (len(out) - base)
		if budget <= 0 {
			break
		}
		hw, clamped, err := n.visibleRange(TopicPartition{Topic: topic, Partition: req.Partition})
		if err != nil {
			return nil, err
		}
		if clamped {
			if req.Offset >= hw {
				continue
			}
			if int64(budget) > hw-req.Offset {
				budget = int(hw - req.Offset)
			}
		}
		if out, err = n.b.FetchMultiInto(topic, []FetchRequest{req}, budget, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// clusterAwait is the longest a cluster transport's Await waits.
const clusterAwait = time.Millisecond

// awaitBounded is the Await of the cluster transports, a bounded timed
// wait that looks at no log: what a consumer of a replicated partition
// may read is set by the high-watermark, which the append signal does
// not follow. Consumers re-poll at this pace, as they always did.
func awaitBounded(wait time.Duration, cancel <-chan struct{}) {
	if wait <= 0 {
		return
	}
	t := time.NewTimer(min(wait, clusterAwait))
	defer t.Stop()
	select {
	case <-t.C:
	case <-cancel:
	}
}

// Await implements Transport as a bounded timed wait (awaitBounded).
func (n *Node) Await(topic string, positions []FetchRequest, wait time.Duration, cancel <-chan struct{}) error {
	if err := n.gate(); err != nil {
		return err
	}
	awaitBounded(wait, cancel)
	return nil
}

// EndOffset implements Transport: for replicated partitions the
// consumer-visible end is the high-watermark, as in Kafka.
func (n *Node) EndOffset(topic string, partition int) (int64, error) {
	if err := n.gate(); err != nil {
		return 0, err
	}
	hw, clamped, err := n.visibleRange(TopicPartition{Topic: topic, Partition: partition})
	if err != nil {
		return 0, err
	}
	if clamped {
		return hw, nil
	}
	return n.b.EndOffset(topic, partition)
}

// CreateTopic implements Transport; topic admin must run through the
// controller node, which owns placement.
func (n *Node) CreateTopic(name string, partitions int) error {
	if err := n.gate(); err != nil {
		return err
	}
	if n.ctrl == nil {
		return fmt.Errorf("broker: %s is not the controller; create topics against the controller node", n.name)
	}
	return n.ctrl.CreateTopic(name, partitions)
}

// DeleteTopic implements Transport via the controller, like CreateTopic.
func (n *Node) DeleteTopic(name string) error {
	if err := n.gate(); err != nil {
		return err
	}
	if n.ctrl == nil {
		return fmt.Errorf("broker: %s is not the controller; delete topics against the controller node", n.name)
	}
	return n.ctrl.DeleteTopic(name)
}

// Partitions implements Transport from the local replica's metadata.
func (n *Node) Partitions(topic string) (int, error) {
	if err := n.gate(); err != nil {
		return 0, err
	}
	return n.b.Partitions(topic)
}

// Group operations delegate to the local broker's coordinator state.
// Clients route them to the coordinator seat (node 0), whose group
// state survives node crashes the same way partition logs do.

// JoinGroup implements Transport.
func (n *Node) JoinGroup(group string, topics []string) (Assignment, error) {
	if err := n.gate(); err != nil {
		return Assignment{}, err
	}
	return n.b.JoinGroup(group, topics)
}

// LeaveGroup implements Transport.
func (n *Node) LeaveGroup(group, memberID string) error {
	if err := n.gate(); err != nil {
		return err
	}
	return n.b.LeaveGroup(group, memberID)
}

// FetchAssignment implements Transport.
func (n *Node) FetchAssignment(group, memberID string, generation int) (Assignment, error) {
	if err := n.gate(); err != nil {
		return Assignment{}, err
	}
	return n.b.FetchAssignment(group, memberID, generation)
}

// CommitOffset implements Transport.
func (n *Node) CommitOffset(group string, tp TopicPartition, offset int64) error {
	if err := n.gate(); err != nil {
		return err
	}
	return n.b.CommitOffset(group, tp, offset)
}

// CommittedOffset implements Transport.
func (n *Node) CommittedOffset(group string, tp TopicPartition) (int64, error) {
	if err := n.gate(); err != nil {
		return 0, err
	}
	return n.b.CommittedOffset(group, tp)
}

var (
	_ Transport        = (*Node)(nil)
	_ ClusterPeer      = (*Node)(nil)
	_ ClusterTransport = (*Node)(nil)
)
