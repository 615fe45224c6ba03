package broker

import (
	"fmt"
	"time"

	"crayfish/internal/faults"
	"crayfish/internal/resilience"
)

// ClusterConfig configures an in-process replicated cluster.
type ClusterConfig struct {
	// Nodes is the broker count N (node ids 0..N-1; node 0 is the
	// controller and consumer-group coordinator seat).
	Nodes int
	// ReplicationFactor is replicas per partition (clamped to Nodes).
	ReplicationFactor int
	// Broker is the per-node log configuration (clock, metrics, network
	// model, fault injector for produce-boundary message faults — each
	// fires once, on the partition leader).
	Broker Config
	// AckTimeout bounds a produce's wait for replication (default 5s).
	AckTimeout time.Duration
	// HeartbeatEvery is the controller's liveness sweep interval
	// (default 1ms).
	HeartbeatEvery time.Duration
	// ReplicaPoll is the follower fetch loop's idle interval (default
	// 1ms).
	ReplicaPoll time.Duration
}

// Cluster is an in-process replicated broker cluster: N nodes with
// per-partition leadership at replication factor R, a deterministic
// controller on node 0, and named crash/restart hooks for the fault
// injector's broker-crash / broker-restart timed events.
type Cluster struct {
	nodes []*Broker
	ctrl  *Controller
}

// NewCluster builds and starts the cluster. A one-node cluster starts
// nothing in the background (Controller.Start).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("broker: cluster needs at least one node")
	}
	nodes := make([]*Broker, cfg.Nodes)
	peers := make(map[int]ClusterPeer, cfg.Nodes)
	for i := range nodes {
		nodes[i] = cfg.NewNode(i)
		peers[i] = nodes[i]
	}
	for _, n := range nodes {
		for id, p := range peers {
			if id != n.cfg.id {
				n.SetPeer(id, p)
			}
		}
	}
	ctrl, err := cfg.Seat(nodes[0], peers)
	if err != nil {
		return nil, err
	}
	ctrl.Start()
	return &Cluster{nodes: nodes, ctrl: ctrl}, nil
}

// NewNode builds node id of the cluster cfg describes, with no
// controller seated on it. NewCluster builds every node with it, and
// brokerd the one node its process hosts.
func (cfg ClusterConfig) NewNode(id int) *Broker {
	bc := cfg.Broker
	bc.id, bc.ackTimeout, bc.replicaPoll = id, cfg.AckTimeout, cfg.ReplicaPoll
	if bc.clock == nil {
		//lint:allow clockdiscipline documented default; tests inject a fake clock
		bc.clock = time.Now
	}
	if bc.ackTimeout <= 0 {
		bc.ackTimeout = 5 * time.Second
	}
	if bc.replicaPoll <= 0 {
		bc.replicaPoll = time.Millisecond
	}
	return &Broker{
		cfg:            bc,
		mAppendRecords: bc.Metrics.Counter("broker.append.records"),
		mAppendBytes:   bc.Metrics.Counter("broker.append.bytes"),
		mFetchRecords:  bc.Metrics.Counter("broker.fetch.records"),
		mFetchBytes:    bc.Metrics.Counter("broker.fetch.bytes"),
		mAwaitParked:   bc.Metrics.Counter("broker.await.parked"),
		mAwaitTimeouts: bc.Metrics.Counter("broker.await.timeouts"),
		mAwaitWait:     bc.Metrics.Histogram("broker.await.wait_ns"),
		topics:         make(map[string]*topic),
		groups:         make(map[string]*group),
		peers:          make(map[int]ClusterPeer),
		fetchers:       make(map[TopicPartition]*fetcher),
	}
}

// CreateTopic places and creates a replicated topic cluster-wide.
func (c *Cluster) CreateTopic(name string, partitions int) error {
	return c.ctrl.CreateTopic(name, partitions)
}

// DeleteTopic removes a topic cluster-wide.
func (c *Cluster) DeleteTopic(name string) error {
	return c.ctrl.DeleteTopic(name)
}

// Client returns a partition-aware Transport over the cluster. retry
// nil uses the failover-sized default policy.
func (c *Cluster) Client(retry *resilience.Retry) (*ClusterClient, error) {
	links := make([]Transport, len(c.nodes))
	for i, n := range c.nodes {
		links[i] = n
	}
	return NewClusterClient(links, retry)
}

// Node returns the node with the given id.
func (c *Cluster) Node(id int) (*Broker, error) {
	if id < 0 || id >= len(c.nodes) {
		return nil, fmt.Errorf("broker: no node %d in a %d-node cluster", id, len(c.nodes))
	}
	return c.nodes[id], nil
}

// nodeByName resolves a fault-plan target like "node-1".
func (c *Cluster) nodeByName(name string) (*Broker, error) {
	for _, n := range c.nodes {
		if n.Name() == name {
			return n, nil
		}
	}
	return nil, fmt.Errorf("broker: unknown cluster node %q", name)
}

// crash kills the named node (fault-plan target form, "node-<id>").
func (c *Cluster) crash(name string) error {
	n, err := c.nodeByName(name)
	if err != nil {
		return err
	}
	n.Crash()
	return nil
}

// restart revives the named node.
func (c *Cluster) restart(name string) error {
	n, err := c.nodeByName(name)
	if err != nil {
		return err
	}
	n.Restart()
	return nil
}

// View returns the controller's current authoritative metadata.
func (c *Cluster) View() ClusterView { return c.ctrl.View() }

// Bind registers the cluster as the handler for the injector's
// broker-crash / broker-restart timed events, keyed by node name: a
// FaultPlan event with Target "node-1" kills that node at its planned
// offset, deterministically. Unknown targets are ignored (the plan
// validated the shape; a name mismatch books as a no-op, not a panic
// mid-experiment).
func (c *Cluster) Bind(inj *faults.Injector) {
	inj.Handle(faults.BrokerCrash, func(e faults.Event) { _ = c.crash(e.Target) })
	inj.Handle(faults.BrokerRestart, func(e faults.Event) { _ = c.restart(e.Target) })
}

// Close shuts down every node, node 0 and the controller seated on it
// first.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		n.Close()
	}
}
