package broker

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crayfish/internal/netsim"
	"crayfish/internal/resilience"
)

// newTestCluster builds an N-node cluster with an effectively disabled
// heartbeat loop so tests drive Controller.Tick() by hand — every
// membership transition happens at a step the test chose, which is what
// makes the failover assertions deterministic.
func newTestCluster(t *testing.T, nodes, rf int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Nodes:             nodes,
		ReplicationFactor: rf,
		AckTimeout:        2 * time.Second,
		HeartbeatEvery:    time.Hour, // tests call Tick() directly
		ReplicaPoll:       200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func clusterValues(t *testing.T, cl *ClusterClient, topic string, partition int) map[string]bool {
	t.Helper()
	got := make(map[string]bool)
	var off int64
	for {
		recs, err := cl.Fetch(topic, partition, off, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			return got
		}
		for _, r := range recs {
			got[string(r.Value)] = true
			off = r.Offset + 1
		}
	}
}

// TestClusterReplicatesToAllNodes checks the basic replication loop: an
// acked produce lands on every replica's local log, and the controller
// placed leadership round-robin.
func TestClusterReplicatesToAllNodes(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	if err := c.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	cl, err := c.Client(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := cl.Produce("t", 0, []Record{{Value: []byte(fmt.Sprintf("r%d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	v := c.View()
	st, ok := v.State(TopicPartition{Topic: "t", Partition: 0})
	if !ok || st.Leader != 0 || st.Epoch != 1 {
		t.Fatalf("partition 0 state = %+v", st)
	}
	if st1, _ := v.State(TopicPartition{Topic: "t", Partition: 1}); st1.Leader != 1 {
		t.Fatalf("round-robin placement: partition 1 leader = %d, want 1", st1.Leader)
	}
	// An acked produce is on every ISR member: all three local logs
	// reach end 10 (followers may need a poll interval to drain).
	for id := 0; id < 3; id++ {
		n, err := c.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, 2*time.Second, func() bool {
			end, err := n.LogEnd(TopicPartition{Topic: "t", Partition: 0})
			return err == nil && end == 10
		}, fmt.Sprintf("node %d log end 10", id))
	}
}

// TestClusterConformanceLeaderKill is the core durability contract:
// kill a partition leader in the middle of a produce stream and every
// record acked before, during, and after the failover must still be
// readable. Acked-record loss must be exactly zero.
func TestClusterConformanceLeaderKill(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	if err := c.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	cl, err := c.Client(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Partition 1 leads on node 1 — not the controller/coordinator seat,
	// so only data-plane leadership moves.
	const total = 60
	var acked sync.Map
	var ackedN atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			v := fmt.Sprintf("rec-%03d", i)
			if _, err := cl.Produce("t", 1, []Record{{Value: []byte(v)}}); err != nil {
				done <- fmt.Errorf("produce %d: %w", i, err)
				return
			}
			acked.Store(v, true)
			ackedN.Add(1)
		}
		done <- nil
	}()

	waitUntil(t, 2*time.Second, func() bool { return ackedN.Load() >= 10 }, "10 acks before the kill")
	if err := c.crash("node-1"); err != nil {
		t.Fatal(err)
	}
	c.ctrl.Tick() // detect the death, elect from the ISR, push the view

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	v := c.View()
	st, _ := v.State(TopicPartition{Topic: "t", Partition: 1})
	if st.Leader == 1 || st.Leader < 0 {
		t.Fatalf("leadership did not move off node 1: %+v", st)
	}
	if st.Epoch < 2 {
		t.Fatalf("failover must bump the leader epoch: %+v", st)
	}

	// Every acked value must be readable from the new leader. Retried
	// produces may have appended twice (at-least-once); loss, not
	// duplication, is the failure mode under test.
	var got map[string]bool
	waitUntil(t, 2*time.Second, func() bool {
		got = clusterValues(t, cl, "t", 1)
		missing := 0
		acked.Range(func(k, _ any) bool {
			if !got[k.(string)] {
				missing++
				return false
			}
			return true
		})
		return missing == 0
	}, "all acked records visible after failover")
}

// TestClusterConformanceFollowerKill checks the other failover
// direction: a dead follower shrinks the ISR and must have no
// client-visible effect — produces keep acking, reads keep serving.
func TestClusterConformanceFollowerKill(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	cl, err := c.Client(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Produce("t", 0, []Record{{Value: []byte("before")}}); err != nil {
		t.Fatal(err)
	}
	// Partition 0 leads on node 0; node 2 is a pure follower.
	if err := c.crash("node-2"); err != nil {
		t.Fatal(err)
	}
	c.ctrl.Tick()
	v := c.View()
	st, _ := v.State(TopicPartition{Topic: "t", Partition: 0})
	if st.Leader != 0 || st.Epoch != 1 {
		t.Fatalf("follower death must not move leadership: %+v", st)
	}
	if containsInt(st.ISR, 2) {
		t.Fatalf("dead follower still in ISR: %+v", st)
	}
	if _, err := cl.Produce("t", 0, []Record{{Value: []byte("after")}}); err != nil {
		t.Fatalf("produce with a dead follower: %v", err)
	}
	got := clusterValues(t, cl, "t", 0)
	if !got["before"] || !got["after"] {
		t.Fatalf("reads across follower death: %v", got)
	}
}

// TestClusterAckGatedOnISR pins the acks=all semantics the failover
// guarantee rests on: with the full replica set in the ISR and every
// follower dead (undetected — no controller tick), a produce cannot
// ack, and the unreplicated record stays invisible to consumers.
func TestClusterAckGatedOnISR(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes:             3,
		ReplicationFactor: 3,
		AckTimeout:        30 * time.Millisecond,
		HeartbeatEvery:    time.Hour,
		ReplicaPoll:       200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	leader, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.crash("node-1"); err != nil {
		t.Fatal(err)
	}
	if err := c.crash("node-2"); err != nil {
		t.Fatal(err)
	}
	// No Tick: the controller has not noticed, so the ISR still lists
	// the dead followers and the high-watermark cannot advance.
	_, perr := leader.Produce("t", 0, []Record{{Value: []byte("unacked")}})
	if !errors.Is(perr, errAckTimeout) {
		t.Fatalf("produce with dead ISR members = %v, want ErrAckTimeout", perr)
	}
	if !resilience.IsRetryable(perr) {
		t.Fatal("ack timeout must be retryable")
	}
	recs, err := leader.Fetch("t", 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("unacked record visible to consumers: %v", recs)
	}
	if end, _ := leader.EndOffset("t", 0); end != 0 {
		t.Fatalf("consumer-visible end = %d, want 0 (high-watermark)", end)
	}
	// The controller notices the deaths: the ISR shrinks to the leader
	// alone and the pending record becomes acked and visible.
	c.ctrl.Tick()
	if _, err := leader.Produce("t", 0, []Record{{Value: []byte("post-shrink")}}); err != nil {
		t.Fatalf("produce after ISR shrink: %v", err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		end, err := leader.EndOffset("t", 0)
		return err == nil && end == 2
	}, "high-watermark advance after ISR shrink")
}

// TestClusterEpochFencing checks both fencing directions on the
// replica-fetch path: a follower behind the leader's epoch is refused,
// and a follower ahead of it proves the leader was deposed — it must
// self-demote and start refusing produces.
func TestClusterEpochFencing(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	leader, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	// Stale follower: epoch below the leader's.
	_, ferr := leader.ReplicaFetch(replicaFetchRequest{Topic: "t", Partition: 0, Offset: 0, Max: 1, From: 1, Epoch: 0})
	if !errors.Is(ferr, errFencedEpoch) {
		t.Fatalf("stale follower fetch = %v, want ErrFencedEpoch", ferr)
	}
	// Newer epoch: the cluster moved on while this leader was isolated.
	_, ferr = leader.ReplicaFetch(replicaFetchRequest{Topic: "t", Partition: 0, Offset: 0, Max: 1, From: 1, Epoch: 7})
	if !errors.Is(ferr, errFencedEpoch) {
		t.Fatalf("superseding fetch = %v, want ErrFencedEpoch", ferr)
	}
	_, perr := leader.Produce("t", 0, []Record{{Value: []byte("x")}})
	var nl *NotLeaderError
	if !errors.As(perr, &nl) || !errors.Is(perr, ErrNotLeader) {
		t.Fatalf("produce on self-demoted leader = %v, want NotLeaderError", perr)
	}
	if !resilience.IsRetryable(perr) {
		t.Fatal("NotLeader must be retryable so clients re-route")
	}
}

// TestClusterRestartCatchUp crashes a follower, keeps producing, and
// restarts it: the returner must re-enter the ISR and replicate the
// records it missed, converging on the leader's log end.
func TestClusterRestartCatchUp(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	cl, err := c.Client(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Produce("t", 0, []Record{{Value: []byte("pre")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.crash("node-2"); err != nil {
		t.Fatal(err)
	}
	c.ctrl.Tick()
	for i := 0; i < 5; i++ {
		if _, err := cl.Produce("t", 0, []Record{{Value: []byte(fmt.Sprintf("mid-%d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.restart("node-2"); err != nil {
		t.Fatal(err)
	}
	// Re-admission is leader-driven: the returner re-enters the ISR only
	// once its replica fetches cover the leader's high-watermark, so the
	// test ticks the controller until the expansion sweep confirms it.
	waitUntil(t, 2*time.Second, func() bool {
		c.ctrl.Tick()
		st, _ := c.View().State(TopicPartition{Topic: "t", Partition: 0})
		return containsInt(st.ISR, 2)
	}, "returner re-admitted to ISR after catch-up")
	n2, err := c.Node(2)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		end, err := n2.LogEnd(TopicPartition{Topic: "t", Partition: 0})
		return err == nil && end == 6
	}, "follower catch-up to log end 6")
	if _, err := cl.Produce("t", 0, []Record{{Value: []byte("post")}}); err != nil {
		t.Fatalf("produce after follower return: %v", err)
	}
}

// TestClusterReturnedReplicaOutOfISRUntilCaughtUp pins the safety half
// of re-admission: a returning replica that has not yet replicated up to
// the leader's high-watermark must be refused by AdmitFollower and stay
// out of the ISR, because admitting it early would let an election hand
// leadership to a log that is missing acked records.
func TestClusterReturnedReplicaOutOfISRUntilCaughtUp(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	cl, err := c.Client(nil)
	if err != nil {
		t.Fatal(err)
	}
	tp := TopicPartition{Topic: "t", Partition: 0}
	if _, err := cl.Produce("t", 0, []Record{{Value: []byte("pre")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.crash("node-2"); err != nil {
		t.Fatal(err)
	}
	c.ctrl.Tick()
	for i := 0; i < 5; i++ {
		if _, err := cl.Produce("t", 0, []Record{{Value: []byte(fmt.Sprintf("mid-%d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	// The leader's last fetch progress for node 2 is offset 1, its
	// high-watermark is 6: admission must be refused until the gap closes.
	n0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := c.View().State(tp)
	if ok, aerr := n0.AdmitFollower(tp, 2, st.Epoch); aerr != nil || ok {
		t.Fatalf("AdmitFollower(lagging returner) = (%v, %v), want (false, nil)", ok, aerr)
	}
	c.ctrl.Tick()
	if st, _ := c.View().State(tp); containsInt(st.ISR, 2) {
		t.Fatalf("lagging returner must stay out of the ISR: %+v", st)
	}
	// Once restarted, replica fetches close the gap and the next sweeps
	// re-admit it — and only then.
	if err := c.restart("node-2"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		c.ctrl.Tick()
		st, _ := c.View().State(tp)
		return containsInt(st.ISR, 2)
	}, "caught-up returner re-admitted to ISR")
	n2, err := c.Node(2)
	if err != nil {
		t.Fatal(err)
	}
	if end, err := n2.LogEnd(tp); err != nil || end != 6 {
		t.Fatalf("re-admitted replica log end = (%d, %v), want 6", end, err)
	}
}

// TestClusterNoUncleanElectionAfterReturn pins the revival rule: an
// offline partition comes back only through a member of its last
// in-sync set. The replica that was already out of the ISR when the
// partition went dark returns first — and must NOT be elected, because
// its log is missing the records acked while it was down.
func TestClusterNoUncleanElectionAfterReturn(t *testing.T) {
	c := newTestCluster(t, 3, 2) // rf=2: partition 0 lives on nodes 0,1
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	cl, err := c.Client(&resilience.Retry{
		BaseDelay:  200 * time.Microsecond,
		MaxDelay:   time.Millisecond,
		MaxElapsed: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tp := TopicPartition{Topic: "t", Partition: 0}
	if _, err := cl.Produce("t", 0, []Record{{Value: []byte("both")}}); err != nil {
		t.Fatal(err)
	}
	// Node 1 drops out; "solo" is acked against ISR {0} alone.
	if err := c.crash("node-1"); err != nil {
		t.Fatal(err)
	}
	c.ctrl.Tick()
	if _, err := cl.Produce("t", 0, []Record{{Value: []byte("solo")}}); err != nil {
		t.Fatal(err)
	}
	// Now the sole in-sync survivor dies too: offline, ISR frozen at {0}.
	if err := c.crash("node-0"); err != nil {
		t.Fatal(err)
	}
	c.ctrl.Tick()
	st, _ := c.View().State(tp)
	if st.Leader != -1 || !containsInt(st.ISR, 0) || containsInt(st.ISR, 1) {
		t.Fatalf("offline state must freeze the last in-sync set: %+v", st)
	}
	// The stale replica returns first. Electing it would lose "solo", so
	// the partition must stay offline.
	if err := c.restart("node-1"); err != nil {
		t.Fatal(err)
	}
	c.ctrl.Tick()
	if st, _ := c.View().State(tp); st.Leader != -1 {
		t.Fatalf("stale returner outside the last ISR must not be elected: %+v", st)
	}
	if _, err := cl.Produce("t", 0, []Record{{Value: []byte("unclean")}}); err == nil {
		t.Fatal("produce must keep failing while only a stale replica is back")
	}
	// The frozen-ISR member returns: revival, with every acked record.
	if err := c.restart("node-0"); err != nil {
		t.Fatal(err)
	}
	c.ctrl.Tick()
	if st, _ := c.View().State(tp); st.Leader != 0 {
		t.Fatalf("revival must elect the last in-sync member: %+v", st)
	}
	got := clusterValues(t, cl, "t", 0)
	if !got["both"] || !got["solo"] {
		t.Fatalf("acked records lost across offline/revival: %v", got)
	}
	// And the stale replica rejoins the usual way: catch up, then ISR.
	waitUntil(t, 2*time.Second, func() bool {
		c.ctrl.Tick()
		st, _ := c.View().State(tp)
		return containsInt(st.ISR, 1)
	}, "stale replica re-admitted after catch-up")
}

// TestClusterConformanceRebalance checks the consumer-group contract
// under broker-membership change: a node death bumps every group
// generation, consumers re-adopt their assignment from committed
// offsets, and — with a commit-after-each-poll discipline — no offset
// is consumed twice.
func TestClusterConformanceRebalance(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	if err := c.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	cl, err := c.Client(nil)
	if err != nil {
		t.Fatal(err)
	}
	const perPart = 20
	for p := 0; p < 2; p++ {
		for i := 0; i < perPart; i++ {
			if _, err := cl.Produce("t", p, []Record{{Value: []byte(fmt.Sprintf("p%d-%03d", p, i))}}); err != nil {
				t.Fatal(err)
			}
		}
	}

	cons, err := NewGroupConsumer(cl, "g", "t")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()

	seen := make(map[string]int) // "partition/offset" → times consumed
	drain := func() {
		t.Helper()
		for polls := 0; polls < 200; polls++ {
			recs, err := cons.Poll(16, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				return
			}
			for _, r := range recs {
				seen[fmt.Sprintf("%d/%d", r.Partition, r.Offset)]++
			}
			if err := cons.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain()
	if len(seen) != 2*perPart {
		t.Fatalf("pre-rebalance consumed %d offsets, want %d", len(seen), 2*perPart)
	}

	// Kill a non-coordinator node: the controller bumps every group
	// generation so consumers notice the topology change.
	if err := c.crash("node-2"); err != nil {
		t.Fatal(err)
	}
	c.ctrl.Tick()

	for p := 0; p < 2; p++ {
		for i := perPart; i < perPart+5; i++ {
			if _, err := cl.Produce("t", p, []Record{{Value: []byte(fmt.Sprintf("p%d-%03d", p, i))}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain()
	if len(seen) != 2*(perPart+5) {
		t.Fatalf("post-rebalance consumed %d offsets, want %d", len(seen), 2*(perPart+5))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("offset %s consumed %d times across the rebalance", k, n)
		}
	}
}

// TestClusterOfflinePartitionAndRevival kills every replica of a
// partition: the partition goes offline (leader −1, produces fail
// retryably until the retry budget drains), then a replica's return
// revives it with a bumped epoch and no acked loss.
func TestClusterOfflinePartitionAndRevival(t *testing.T) {
	c := newTestCluster(t, 3, 2) // rf=2: partition 2 lives on nodes 2,0
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	cl, err := c.Client(&resilience.Retry{
		BaseDelay:  200 * time.Microsecond,
		MaxDelay:   time.Millisecond,
		MaxElapsed: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Produce("t", 0, []Record{{Value: []byte("acked")}}); err != nil {
		t.Fatal(err)
	}
	// Partition 0 replicas are nodes 0 and 1; kill both.
	if err := c.crash("node-0"); err != nil {
		t.Fatal(err)
	}
	if err := c.crash("node-1"); err != nil {
		t.Fatal(err)
	}
	c.ctrl.Tick()
	v := c.View()
	st, _ := v.State(TopicPartition{Topic: "t", Partition: 0})
	if st.Leader != -1 {
		t.Fatalf("partition with no live replica must go offline: %+v", st)
	}
	if _, err := cl.Produce("t", 0, []Record{{Value: []byte("lost-cause")}}); err == nil {
		t.Fatal("produce to an offline partition must fail")
	}
	if err := c.restart("node-1"); err != nil {
		t.Fatal(err)
	}
	c.ctrl.Tick()
	v = c.View()
	st, _ = v.State(TopicPartition{Topic: "t", Partition: 0})
	if st.Leader != 1 {
		t.Fatalf("revival must elect the returner: %+v", st)
	}
	got := clusterValues(t, cl, "t", 0)
	if !got["acked"] {
		t.Fatalf("acked record lost across offline/revival: %v", got)
	}
}

// TestClusterViewCloneIsolation guards the metadata plumbing: mutating
// a returned view must not corrupt the controller's authoritative copy.
func TestClusterViewCloneIsolation(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	v := c.View()
	v.Partitions["t"][0].Leader = 99
	v.Members[0] = 99
	v2 := c.View()
	if v2.Partitions["t"][0].Leader == 99 || v2.Members[0] == 99 {
		t.Fatal("View must return an isolated clone")
	}
}

// TestClusterTopicAdminRouting pins the control-plane split: topic
// admin runs only through the controller seat, and deletes propagate
// cluster-wide.
func TestClusterTopicAdminRouting(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	n1, err := c.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.CreateTopic("t", 1); err == nil {
		t.Fatal("non-controller node must refuse topic admin")
	}
	cl, err := c.Client(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTopic("t", 2); !errors.Is(err, ErrTopicExists) {
		t.Fatalf("duplicate cluster topic: %v", err)
	}
	if n, err := cl.Partitions("t"); err != nil || n != 2 {
		t.Fatalf("Partitions = %d, %v", n, err)
	}
	if err := cl.DeleteTopic("t"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		_, err := n1.Partitions("t")
		return errors.Is(err, errUnknownTopic)
	}, "topic deletion to reach followers")
}

// TestClusterMultiFetchPaysOneHop: a fetch across several partitions of
// one leader is one response, and pays the modelled network hop once,
// as on a standalone broker — not once per partition.
func TestClusterMultiFetchPaysOneHop(t *testing.T) {
	const hop = 20 * time.Millisecond
	c, err := NewCluster(ClusterConfig{
		Nodes:             1,
		ReplicationFactor: 1,
		Broker:            Config{Network: netsim.Profile{Latency: hop}},
		HeartbeatEvery:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	cl, err := c.Client(nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]FetchRequest, 4)
	for p := range reqs {
		if _, err := cl.Produce("t", p, []Record{{Value: []byte("x")}}); err != nil {
			t.Fatal(err)
		}
		reqs[p] = FetchRequest{Partition: p}
	}
	start := time.Now()
	recs, err := cl.FetchMulti("t", reqs, 16)
	took := time.Since(start)
	if err != nil || len(recs) != len(reqs) {
		t.Fatalf("FetchMulti = %d records, %v", len(recs), err)
	}
	if took >= 2*hop {
		t.Fatalf("a %d-partition fetch with a %v hop took %v: charged per partition", len(reqs), hop, took)
	}
}

// TestClusterProduceHopHoldsNoLock: a produce serves its modelled
// network hop before it takes the partition's replication lock, so the
// leader answers other calls on that partition while the hop runs.
func TestClusterProduceHopHoldsNoLock(t *testing.T) {
	const hop = 50 * time.Millisecond
	c, err := NewCluster(ClusterConfig{
		Nodes:             1,
		ReplicationFactor: 1,
		Broker:            Config{Network: netsim.Profile{Latency: hop}},
		HeartbeatEvery:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	leader, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	produced := make(chan error, 1)
	go func() {
		_, err := leader.Produce("t", 0, []Record{{Value: []byte("x")}})
		produced <- err
	}()
	time.Sleep(hop / 5) // the produce is inside its hop
	start := time.Now()
	if _, err := leader.EndOffset("t", 0); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= hop/4 {
		t.Fatalf("EndOffset took %v while a produce served its %v hop", took, hop)
	}
	if err := <-produced; err != nil {
		t.Fatal(err)
	}
}

// TestClusterClientFetchSplitsPerAttempt: a client whose view is one
// version behind believes node 1 leads both partitions, while node 0
// leads partition 0. The first attempt's misrouted half answers
// NotLeader and refreshes the view; the retry must split the request
// set again by the fresh view, or every retry resends one group to a
// node that leads only part of it until the budget runs out.
func TestClusterClientFetchSplitsPerAttempt(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	if err := c.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	cl, err := c.Client(&resilience.Retry{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, MaxElapsed: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if _, err := cl.Produce("t", p, []Record{{Value: []byte(fmt.Sprint(p))}}); err != nil {
			t.Fatal(err)
		}
	}
	stale := c.View()
	if l0, l1 := stale.Partitions["t"][0].Leader, stale.Partitions["t"][1].Leader; l0 != 0 || l1 != 1 {
		t.Fatalf("leaders %d and %d, want 0 and 1", l0, l1)
	}
	stale.Version--
	stale.Partitions["t"][0].Leader = 1
	cl.mu.Lock()
	cl.view = stale
	cl.mu.Unlock()

	recs, err := cl.FetchMulti("t", []FetchRequest{{Partition: 0}, {Partition: 1}}, 16)
	if err != nil || len(recs) != 2 {
		t.Fatalf("fetch through a stale view = %d records, %v; want both partitions' records", len(recs), err)
	}
}
