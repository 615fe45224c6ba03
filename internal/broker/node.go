package broker

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"crayfish/internal/resilience"
	"crayfish/internal/telemetry"
)

// Every Broker is one node of a replicated cluster, and the controller's
// pushed views drive it: the replication role machinery lives here —
// leadership gating with epoch fencing, high-watermark ack tracking
// when leading, and follower catch-up fetchers when following.
// Crash/Restart model a process kill that preserves the log ("disk
// survives"), which is what lets a restarted node rejoin and catch up.

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
// replica-fetch offsets) to derive the high-watermark.
type replState struct {
	tp   TopicPartition
	self int              // this node's id
	lag  *telemetry.Gauge // broker.cluster.replica_lag

	mu       sync.Mutex
	leader   int
	epoch    int
	replicas []int
	isr      []int
	isLeader bool
	// hw is the high-watermark: offsets below it are stored on every
	// ISR member, so they are the acked, consumer-visible prefix. It
	// never regresses. Whoever moves it signals the topic, which wakes
	// both produce ack waiters and parked Awaits.
	hw int64
	// followerEnd is leader-only: node id → log end implied by that
	// follower's latest replica fetch.
	followerEnd map[int]int64
}

// advanceHW recomputes the high-watermark from the local log end and
// the ISR followers' known ends and reports whether it moved. Caller
// holds rs.mu.
func (rs *replState) advanceHW(localEnd int64) bool {
	m := localEnd
	for _, id := range rs.isr {
		if id == rs.self {
			continue
		}
		if e := rs.followerEnd[id]; e < m {
			m = e
		}
	}
	moved := m > rs.hw
	if moved {
		rs.hw = m
	}
	rs.lag.Set(localEnd - rs.hw)
	return moved
}

// notLeader builds the retryable re-route error for a misrouted call.
// Caller holds rs.mu.
func (rs *replState) notLeader() error {
	return resilience.MarkRetryable(&NotLeaderError{TP: rs.tp, Leader: rs.leader, Epoch: rs.epoch})
}

// visible returns the high-watermark, the end of what consumers may
// read, or NotLeaderError.
func (rs *replState) visible() (int64, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.isLeader {
		return 0, rs.notLeader()
	}
	return rs.hw, nil
}

// Name returns the broker's fault-plan target name, "node-<id>".
func (b *Broker) Name() string { return fmt.Sprintf("node-%d", b.cfg.id) }

// SetPeer installs or replaces a peer link; brokerd uses it to finish
// wiring once all peer addresses resolve.
func (b *Broker) SetPeer(id int, p ClusterPeer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.peers[id] = p
}

// nodeDown wraps errNodeDown retryably with the node's name.
func (b *Broker) nodeDown() error {
	return resilience.MarkRetryable(fmt.Errorf("%w: %s", errNodeDown, b.Name()))
}

// Crash takes the node down: clients and peers get retryable
// errNodeDown, follower fetchers stop, and produce ack waiters and
// parked Awaits wake immediately instead of riding out their timers.
// The local log and group state survive, modelling a process kill over
// durable storage.
//
//lint:allow deadexport clustertest's wire conformance suite kills nodes
func (b *Broker) Crash() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down || b.closed {
		return
	}
	b.down = true
	b.stopFetchersLocked()
	for _, t := range b.topics {
		t.changed()
	}
}

// Restart brings a crashed node back. It resumes with its pre-crash
// view — possibly stale — and starts follower fetchers from it; the
// controller's next push delivers the current view, demoting (and
// truncating) it if leadership moved while it was down.
//
//lint:allow deadexport clustertest's wire conformance suite revives nodes
func (b *Broker) Restart() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.down || b.closed {
		return
	}
	b.down = false
	b.reconcileFetchersLocked()
}

func (b *Broker) stopFetchersLocked() {
	for tp, f := range b.fetchers {
		close(f.stop)
		delete(b.fetchers, tp)
	}
}

// Ping implements ClusterPeer: the controller's liveness probe.
func (b *Broker) Ping() error { return b.gate() }

// LogEnd implements ClusterPeer: the raw local log end (not the
// high-watermark), which is the controller's election key.
func (b *Broker) LogEnd(tp TopicPartition) (int64, error) {
	_, p, err := b.partition(tp.Topic, tp.Partition)
	if err != nil {
		return 0, err
	}
	return p.end(), nil
}

// ClusterView implements Transport: the view the node holds, for
// client-side leader discovery. Views are immutable and shared: the
// caller must not write to it.
func (b *Broker) ClusterView() (ClusterView, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.gateLocked(); err != nil {
		return ClusterView{}, err
	}
	return b.view, nil
}

// PushView implements ClusterPeer: the controller's metadata push, the
// only place that creates and deletes a node's topics. The node holds v
// as it is (views are immutable), creates the topics it does not hold
// yet and drops those v no longer carries, adopts the new leadership/ISR
// state per partition, truncates its log to the old high-watermark when
// demoted from leader (discarding only unacked records — the acked
// prefix is identical on every ISR member), wakes the waiters on every
// topic the view covers, and reconciles its follower fetchers.
func (b *Broker) PushView(v ClusterView) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.gateLocked(); err != nil {
		return err
	}
	if v.Version <= b.view.Version {
		// Stale push: reject before creating anything, so a delayed old
		// view cannot resurrect a topic a newer view already deleted.
		return nil
	}
	b.view = v
	for name, states := range v.Partitions {
		t := b.topics[name]
		if t == nil {
			t = b.createTopicLocked(name, len(states))
		}
		for i, st := range states[:min(len(states), len(t.parts))] {
			b.adoptLocked(t.parts[i], st)
		}
		// Leadership or the high-watermark may have moved: parked
		// waiters check again.
		t.changed()
	}
	for name, t := range b.topics {
		if _, ok := v.Partitions[name]; !ok {
			b.deleteTopicLocked(t)
		}
	}
	b.reconcileFetchersLocked()
	return nil
}

// adoptLocked installs one partition's state from a pushed view. Caller
// holds b.mu.
func (b *Broker) adoptLocked(p *partition, st PartitionState) {
	rs := p.repl
	localEnd := p.end()
	rs.mu.Lock()
	oldHW := rs.hw
	epochMoved := st.Epoch > rs.epoch
	if epochMoved {
		rs.epoch = st.Epoch
	}
	rs.leader = st.Leader
	// Shared with the view, which nobody writes: AdmitFollower replaces
	// isr rather than editing it.
	rs.replicas, rs.isr = st.Replicas, st.ISR
	rs.isLeader = st.Leader == b.cfg.id
	leadsNow := rs.isLeader
	if rs.isLeader {
		if epochMoved || rs.followerEnd == nil {
			// A fresh leadership term forgets follower progress learned
			// in earlier terms — a returner may have truncated since, so
			// old ends could overstate what it holds and inflate the
			// high-watermark.
			rs.followerEnd = make(map[int]int64)
		}
		// ISR changes move the watermark derivation: recompute so a
		// shrink unblocks waiting produces immediately (PushView wakes
		// them).
		rs.advanceHW(localEnd)
	}
	rs.mu.Unlock()
	// Publish adopted leadership into this node's own registry so every
	// node's /metrics answers "who leads partition p", not just the
	// controller's (followers are what you can still scrape
	// mid-failover).
	noteLeader(b.cfg.Metrics, rs.tp, st.Leader)
	if epochMoved && !leadsNow {
		// New term, not leading it: drop everything this node never saw
		// acked so its log rejoins the new leader's as a clean prefix
		// before re-fetching — the old tail may hold records the new
		// leader assigns differently.
		p.truncate(oldHW)
	}
}

// reconcileFetchersLocked aligns running follower fetch loops with the
// current view: one fetcher per partition this node follows, keyed to
// the leader and epoch it should be fetching from. Caller holds b.mu.
func (b *Broker) reconcileFetchersLocked() {
	want := make(map[TopicPartition]fetchTarget)
	for _, t := range b.topics {
		for _, p := range t.parts {
			rs := p.repl
			rs.mu.Lock()
			if !rs.isLeader && rs.leader >= 0 && rs.leader != b.cfg.id && slices.Contains(rs.replicas, b.cfg.id) {
				want[rs.tp] = fetchTarget{leader: rs.leader, epoch: rs.epoch}
			}
			rs.mu.Unlock()
		}
	}
	for tp, f := range b.fetchers {
		if w, ok := want[tp]; !ok || w != f.target {
			close(f.stop)
			delete(b.fetchers, tp)
		}
	}
	if b.down || b.closed {
		return
	}
	for tp, w := range want {
		if _, ok := b.fetchers[tp]; ok {
			continue
		}
		f := &fetcher{stop: make(chan struct{}), target: w}
		b.fetchers[tp] = f
		b.wg.Add(1)
		go b.runFetcher(tp, w, f.stop)
	}
}

// runFetcher is the follower catch-up loop for one partition: fetch
// from the leader, and idle-poll when caught up. Errors — leader down,
// fenced epoch — are ridden out with the same idle poll; the
// controller's next view push retargets or stops the loop.
func (b *Broker) runFetcher(tp TopicPartition, target fetchTarget, stop chan struct{}) {
	defer b.wg.Done()
	for {
		select {
		case <-stop:
			return
		default:
		}
		idle, stale := b.fetchFromLeader(tp, target)
		if stale || idle && !b.fetchWait(stop) {
			return
		}
	}
}

// fetchFromLeader is one follower catch-up round: fetch from the leader
// at the local log end, append verbatim — offsets and append times as
// the leader stamped them, without the produce-boundary hop, faults and
// counters, which fired once on the leader — and adopt the leader's
// high-watermark. idle says the follower caught up or failed; stale says
// the view moved past the fetch target while the batch was in flight,
// so the batch is dropped rather than appended from a superseded term.
func (b *Broker) fetchFromLeader(tp TopicPartition, target fetchTarget) (idle, stale bool) {
	// Looked up every round: a view can arrive before the leader's link
	// does (brokerd nodes start in any order).
	b.mu.RLock()
	link := b.peers[target.leader]
	b.mu.RUnlock()
	if link == nil {
		return true, false
	}
	_, p, err := b.partition(tp.Topic, tp.Partition)
	if err != nil {
		return true, false
	}
	resp, err := link.ReplicaFetch(replicaFetchRequest{
		Topic:     tp.Topic,
		Partition: tp.Partition,
		Offset:    p.end(),
		Max:       replicaBatch,
		From:      b.cfg.id,
		Epoch:     target.epoch,
	})
	if err != nil {
		return true, false
	}
	if len(resp.Records) > 0 {
		p.repl.mu.Lock()
		stale = p.repl.epoch != target.epoch
		p.repl.mu.Unlock()
		if stale || p.replicate(resp.Records) != nil {
			return true, stale
		}
	}
	b.adoptLeaderHW(tp, resp.HW)
	return len(resp.Records) == 0, false
}

// fetchWait parks the fetcher for one idle-poll interval; false means
// the fetcher was stopped.
func (b *Broker) fetchWait(stop chan struct{}) bool {
	t := time.NewTimer(b.cfg.replicaPoll)
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
func (b *Broker) adoptLeaderHW(tp TopicPartition, hw int64) {
	t, p, err := b.partition(tp.Topic, tp.Partition)
	if err != nil {
		return
	}
	rs := p.repl
	hw = min(hw, p.end())
	rs.mu.Lock()
	moved := hw > rs.hw
	if moved {
		rs.hw = hw
	}
	rs.mu.Unlock()
	if moved {
		t.changed()
	}
}

// ReplicaFetch implements ClusterPeer: the leader side of follower
// catch-up. The request's offset doubles as the follower's replication
// progress (it holds everything below), which drives the high-watermark
// derivation; the epoch check fences both directions — a stale follower
// is refused, a newer epoch self-demotes this stale leader.
func (b *Broker) ReplicaFetch(req replicaFetchRequest) (replicaFetchResponse, error) {
	t, p, err := b.partition(req.Topic, req.Partition)
	if err != nil {
		return replicaFetchResponse{}, err
	}
	rs := p.repl
	localEnd := p.end()
	rs.mu.Lock()
	if !rs.isLeader {
		err := rs.notLeader()
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
		// leadership was revoked while it was out of touch. Self-demote
		// and wake the waiters; the controller's view push fills in the
		// real leader.
		rs.isLeader = false
		rs.leader = -1
		rs.epoch = req.Epoch
		rs.mu.Unlock()
		t.changed()
		return replicaFetchResponse{}, resilience.MarkRetryable(fmt.Errorf("%w: leader superseded at epoch %d", errFencedEpoch, req.Epoch))
	}
	if req.Offset > rs.followerEnd[req.From] {
		rs.followerEnd[req.From] = req.Offset
	}
	moved := rs.advanceHW(localEnd)
	hw, epoch := rs.hw, rs.epoch
	rs.mu.Unlock()
	if moved {
		t.changed()
	}
	// The raw log: followers replicate past the high-watermark.
	recs, err := p.read(req.Offset, req.Max, math.MaxInt64, nil)
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
func (b *Broker) AdmitFollower(tp TopicPartition, follower, epoch int) (bool, error) {
	_, p, err := b.partition(tp.Topic, tp.Partition)
	if err != nil {
		return false, err
	}
	rs := p.repl
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.isLeader || rs.epoch != epoch || !slices.Contains(rs.replicas, follower) {
		return false, nil
	}
	if slices.Contains(rs.isr, follower) {
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

// produceAcked is Produce past the hop and the fault verdicts, with
// acks=all semantics: the append is accepted only on the partition leader and
// the call blocks until the high-watermark covers it — every ISR member
// stores the records — so an acked produce survives any single leader
// crash. The hop and the fault verdicts were served before this runs,
// so no lock is held across them.
func (b *Broker) produceAcked(t *topic, p *partition, recs []Record) (int64, error) {
	rs := p.repl
	// The leadership check and the append stay under one rs.mu hold: a
	// concurrent demotion (PushView flips isLeader under rs.mu, then
	// truncates to the old high-watermark) either lands before the
	// check — rejecting the produce — or after the append — truncating
	// the still-unacked tail — so no record can survive in a follower
	// log at an offset the new leader will assign to different data.
	rs.mu.Lock()
	if !rs.isLeader {
		err := rs.notLeader()
		rs.mu.Unlock()
		return 0, err
	}
	base := p.append(recs, b.cfg.clock)
	rs.mu.Unlock()
	b.countAppend(t, recs)
	target := base + int64(len(recs))
	// The first check runs unarmed, as in Await: a partition whose ISR is
	// only its leader acks at once, with no timer and no channel.
	var timer *time.Timer
	for {
		var signal <-chan struct{}
		var err error
		if timer != nil {
			// Capture, then check, as in Await: an ack or a crash racing
			// the check closes the captured channel.
			signal, err = t.appendSignal()
		}
		if err == nil {
			err = b.gate()
		}
		if err != nil {
			return 0, err
		}
		rs.mu.Lock()
		// Covers the ISR=={self} case and re-derives after appends.
		moved := rs.isLeader && rs.advanceHW(target)
		acked, leads := rs.hw >= target, rs.isLeader
		if !acked && !leads {
			err = rs.notLeader()
		}
		rs.mu.Unlock()
		if moved {
			t.changed()
		}
		if err != nil {
			return 0, err
		}
		if acked {
			return base, nil
		}
		if timer == nil {
			// Not acked at once: arm, then check again before waiting.
			timer = time.NewTimer(b.cfg.ackTimeout)
			defer timer.Stop()
			continue
		}
		select {
		case <-signal:
		case <-timer.C:
			return 0, resilience.MarkRetryable(fmt.Errorf("%w: %s/%d waiting for hw %d", errAckTimeout, t.name, p.id, target))
		}
	}
}

var _ ClusterPeer = (*Broker)(nil)
