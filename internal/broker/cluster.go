package broker

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"crayfish/internal/telemetry"
)

// Cluster-mode errors. ErrNotLeader and errNodeDown are routing signals:
// the partition-aware client refreshes its metadata and re-routes, so
// both travel wrapped retryable (resilience.IsRetryable). errFencedEpoch
// is the fencing verdict a stale leader or follower receives when its
// leader epoch no longer matches; the controller's next view push
// resolves it, so it too is retryable from the replication loop's point
// of view. errAckTimeout means replication did not confirm an append
// within the ack window — the record may or may not be stored, exactly
// Kafka's acks=all timeout, and the producer's retry (at-least-once,
// deduplicated downstream) rides it out.
var (
	ErrNotLeader   = errors.New("broker: not leader for partition") //lint:allow deadexport clustertest's wire conformance suite matches it
	errNodeDown    = errors.New("broker: node down")
	errFencedEpoch = errors.New("broker: fenced leader epoch")
	errAckTimeout  = errors.New("broker: replication ack timeout")
	errNoLeader    = errors.New("broker: partition has no live leader")
)

// NotLeaderError reports where a misrouted partition request should have
// gone. It matches errors.Is(err, ErrNotLeader); Leader is -1 when the
// partition is currently leaderless (every replica dead).
//
//lint:allow deadexport clustertest's wire conformance suite asserts it
type NotLeaderError struct {
	TP     TopicPartition
	Leader int
	Epoch  int
}

// Error implements error.
func (e *NotLeaderError) Error() string {
	return fmt.Sprintf("broker: not leader for %s/%d (leader node %d, epoch %d)", e.TP.Topic, e.TP.Partition, e.Leader, e.Epoch)
}

// Is matches the sentinel so callers can errors.Is(err, ErrNotLeader)
// without knowing the concrete type.
func (e *NotLeaderError) Is(target error) bool { return target == ErrNotLeader }

// PartitionState is one partition's replication state inside a
// ClusterView: who leads at which epoch, which nodes hold replicas, and
// which of them are in sync (eligible for election; their log ends gate
// the high-watermark).
type PartitionState struct {
	Leader   int   `json:"leader"` // -1 when offline
	Epoch    int   `json:"epoch"`
	Replicas []int `json:"replicas"`
	ISR      []int `json:"isr"`
}

// ClusterView is the controller's metadata: cluster membership and
// per-partition leadership. A view is immutable once published: the
// controller pushes one value to every node, and nodes and clients hold
// it without copying, so nobody may write to it. Version orders views so
// a stale one never overwrites a newer one.
type ClusterView struct {
	Version    int                         `json:"version"`
	Members    []int                       `json:"members"` // alive node ids, sorted
	Partitions map[string][]PartitionState `json:"partitions"`
}

// State returns the partition's replication state, or false when the
// view does not cover it.
//
//lint:allow deadexport clustertest's wire conformance suite reads it
func (v ClusterView) State(tp TopicPartition) (PartitionState, bool) {
	states, ok := v.Partitions[tp.Topic]
	if !ok || tp.Partition < 0 || tp.Partition >= len(states) {
		return PartitionState{}, false
	}
	return states[tp.Partition], true
}

// leader returns the partition's current leader node id, or an error
// when the view does not cover the partition or it is offline.
func (v ClusterView) leader(tp TopicPartition) (int, error) {
	s, ok := v.State(tp)
	if !ok {
		return 0, fmt.Errorf("%w: %s/%d", errUnknownPartition, tp.Topic, tp.Partition)
	}
	if s.Leader < 0 {
		return 0, fmt.Errorf("%w: %s/%d", errNoLeader, tp.Topic, tp.Partition)
	}
	return s.Leader, nil
}

// replicaFetchRequest is a follower's catch-up read: Offset is the
// follower's log end (it holds everything below), so the leader both
// serves the next records and learns the follower's replication
// progress from the same message — the Kafka fetch-derived ISR model.
type replicaFetchRequest struct {
	Topic     string `json:"topic"`
	Partition int    `json:"partition"`
	Offset    int64  `json:"offset"`
	Max       int    `json:"max"`
	From      int    `json:"from"`  // follower node id
	Epoch     int    `json:"epoch"` // follower's leader epoch for the partition
}

// replicaFetchResponse carries the records plus the leader's current
// high-watermark and epoch, which is how followers learn both.
type replicaFetchResponse struct {
	Records []Record
	HW      int64
	Epoch   int
}

// ClusterPeer is the node-to-node surface: the controller pings peers,
// pushes views, and queries raw log ends for elections; followers pull
// replica fetches from leaders. A *Broker implements it in process; a
// *RemoteClient implements it over the wire for brokerd clusters.
type ClusterPeer interface {
	Ping() error
	PushView(v ClusterView) error
	ReplicaFetch(req replicaFetchRequest) (replicaFetchResponse, error)
	// LogEnd is the node's raw local log end for a partition (not the
	// consumer-visible high-watermark) — the controller's election key.
	LogEnd(tp TopicPartition) (int64, error)
	// AdmitFollower asks the partition leader (at the given epoch) to
	// re-admit a caught-up follower into its in-sync derivation. The
	// leader answers true only when the follower's replica fetches
	// cover the high-watermark; the controller then adds it to the
	// view's ISR. False (no error) means "not yet" — retry next sweep.
	AdmitFollower(tp TopicPartition, follower, epoch int) (bool, error)
}

// noteLeader publishes a partition's leader id into reg as the gauge
// broker.cluster.leader.<topic>-<partition>. The name is built only when
// telemetry is on: view pushes call this for every partition.
func noteLeader(reg *telemetry.Registry, tp TopicPartition, leader int) {
	if reg != nil {
		reg.Gauge("broker.cluster.leader." + fmt.Sprintf("%s-%d", tp.Topic, tp.Partition)).Set(int64(leader))
	}
}

// removeInt returns a new slice of ids without id, preserving order.
func removeInt(ids []int, id int) []int {
	return slices.DeleteFunc(slices.Clone(ids), func(v int) bool { return v == id })
}

// insertSorted returns a sorted id slice with id added: ids itself when
// it holds id already, else a new slice, so that ids may belong to a
// published view.
func insertSorted(ids []int, id int) []int {
	if slices.Contains(ids, id) {
		return ids
	}
	i := sort.SearchInts(ids, id)
	return slices.Insert(slices.Clip(ids), i, id)
}

// placement computes the replica set for partition p in an n-node
// cluster at replication factor r: nodes p, p+1, … p+r−1 (mod n), the
// first being the preferred leader — Kafka's round-robin assignment.
func placement(p, n, r int) []int {
	if r > n {
		r = n
	}
	out := make([]int, r)
	for i := 0; i < r; i++ {
		out[i] = (p + i) % n
	}
	return out
}
