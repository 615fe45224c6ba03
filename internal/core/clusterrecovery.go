package core

import (
	"fmt"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/faults"
	"crayfish/internal/resilience"
)

// ClusterSpec sizes the replicated broker cluster a failover recovery
// run executes against.
type ClusterSpec struct {
	// Nodes is the broker count (default 3).
	Nodes int
	// ReplicationFactor is replicas per partition (default 3, clamped to
	// Nodes).
	ReplicationFactor int
	// TornFrameEvery, when >0, additionally serves every node over real
	// TCP behind a faults.NewProxy and arms a torn frame — a response
	// stream severed mid-frame — on every node's client link at this
	// period. Replication and controller links stay in-process, so the
	// planned fault schedule (and its log) is untouched; the chaos lands
	// purely on the client transport, which must ride it out. Like every
	// planned fault the chaos window is bounded: tears stop arming once
	// the workload and the last fault window have both passed, so the
	// drain phase measures recovery instead of prolonging the outage.
	TornFrameEvery time.Duration
	// TornFrameFor bounds the chaos window explicitly. Zero derives it
	// from the plan's last fault window and the workload duration,
	// whichever ends later.
	TornFrameFor time.Duration
}

// The recovery cluster's fixed timings.
const (
	// clusterAckTimeout bounds a produce's replication wait: small enough
	// that an undetected dead follower surfaces as a retryable timeout
	// well inside the experiment's retry budget.
	clusterAckTimeout = 2 * time.Second
	// clusterHeartbeat is the controller's liveness sweep period.
	clusterHeartbeat = time.Millisecond
	// clusterReplicaPoll is the follower fetch loop's idle interval,
	// keeping replica lag far below the fault-window scale.
	clusterReplicaPoll = 200 * time.Microsecond
	// tornFrameBytes is how many response bytes pass before an armed tear
	// severs the connection: mid-frame for every response the pipeline
	// sends.
	tornFrameBytes = 48
)

func (s ClusterSpec) withDefaults() ClusterSpec {
	if s.Nodes <= 0 {
		s.Nodes = 3
	}
	if s.ReplicationFactor <= 0 {
		s.ReplicationFactor = 3
	}
	return s
}

// ClusterRecoveryResult extends the recovery books with the failover
// accounting: Lost is the acked-record loss (must be 0 — the
// high-watermark ack gate is the guarantee under test), Failovers
// counts leader elections the controller performed, and LeaderEpoch is
// the highest epoch any partition reached.
type ClusterRecoveryResult struct {
	*RecoveryResult
	Failovers   int
	LeaderEpoch int
}

// RunClusterRecovery executes one experiment against a replicated
// broker cluster while the fault plan fires: broker-crash events kill
// named nodes (the controller detects the death, elects a new leader
// from the ISR, fences the old epoch), broker-restart events revive
// them into follower catch-up, and the partition-aware cluster client
// rides every transition out by re-routing on NotLeader. The run books
// the standard recovery result plus the failover count; acked-record
// loss (Lost) must be zero whenever every partition kept a live
// in-sync replica.
func (r *Runner) RunClusterRecovery(cfg Config, plan faults.Plan, spec ClusterSpec) (*ClusterRecoveryResult, error) {
	if r.Transport != nil {
		return nil, fmt.Errorf("core: cluster recovery runs own their cluster (Transport override set)")
	}
	spec = spec.withDefaults()
	fr, scorer, cleanup, err := prepareFaultRun(&cfg, plan)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	cluster, err := broker.NewCluster(broker.ClusterConfig{
		Nodes:             spec.Nodes,
		ReplicationFactor: spec.ReplicationFactor,
		Broker:            brokerConfig(cfg, fr.inj),
		AckTimeout:        clusterAckTimeout,
		HeartbeatEvery:    clusterHeartbeat,
		ReplicaPoll:       clusterReplicaPoll,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	// Bind before the measurement loop starts the injector: broker-crash
	// and broker-restart events resolve their "node-<id>" targets here.
	cluster.Bind(fr.inj)

	// Torn-frame chaos runs while the workload is live and the planned
	// faults are in flight, then stops: an unbounded tear schedule would
	// sever every response once drain traffic goes sparse (one armed tear
	// is always pending), turning a bounded outage into a permanent one.
	chaosFor := spec.TornFrameFor
	if chaosFor <= 0 {
		chaosFor = plan.LastWindowEnd()
		if cfg.Workload.Duration > chaosFor {
			chaosFor = cfg.Workload.Duration
		}
	}
	if chaosFor <= 0 {
		chaosFor = time.Second
	}
	transport, wireCleanup, err := clusterTransport(cluster, spec, chaosFor, recoveryRetry(plan))
	if err != nil {
		return nil, err
	}
	defer wireCleanup()

	res, err := r.measure(cfg, transport, scorer, fr)
	if err != nil {
		return nil, err
	}
	out := &ClusterRecoveryResult{RecoveryResult: res}
	// Every election bumps exactly one partition's epoch by one from its
	// floor of 1, so the failover count is recoverable from the final
	// view without telemetry.
	v := cluster.View()
	for _, states := range v.Partitions {
		for _, st := range states {
			out.Failovers += st.Epoch - 1
			if st.Epoch > out.LeaderEpoch {
				out.LeaderEpoch = st.Epoch
			}
		}
	}
	return out, nil
}

// clusterTransport builds the client transport for a cluster recovery
// run: the in-process partition-aware client by default, or — with torn
// frames enabled — RemoteClients dialed through per-node fault proxies,
// with a chaos goroutine re-arming a mid-frame tear on every link at
// the configured period for chaosFor, then going quiet.
func clusterTransport(cluster *broker.Cluster, spec ClusterSpec, chaosFor time.Duration, retry *resilience.Retry) (broker.Transport, func(), error) {
	if spec.TornFrameEvery <= 0 {
		cl, err := cluster.Client(retry)
		return cl, func() {}, err
	}
	var closers []func()
	cleanup := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	links := make([]broker.ClusterTransport, spec.Nodes)
	proxies := make([]*faults.Proxy, 0, spec.Nodes)
	for id := 0; id < spec.Nodes; id++ {
		node, err := cluster.Node(id)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		srv, err := broker.Serve(node, "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		closers = append(closers, func() { _ = srv.Close() })
		proxy, err := faults.NewProxy(srv.Addr())
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		closers = append(closers, func() { _ = proxy.Close() })
		proxies = append(proxies, proxy)
		// Each link carries its own transport retry: a torn frame is
		// absorbed by a fresh dial at the link layer, and only sustained
		// outages (a crashed node) escalate to the routing retry above.
		rc, err := broker.Dial(proxy.Addr(),
			broker.WithCallTimeout(5*time.Second),
			broker.WithRetry(&resilience.Retry{Attempts: 10, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}))
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		closers = append(closers, func() { _ = rc.Close() })
		links[id] = rc
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for elapsed := time.Duration(0); elapsed < chaosFor; elapsed += spec.TornFrameEvery {
			t := time.NewTimer(spec.TornFrameEvery)
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
			for _, p := range proxies {
				p.TearAfter(tornFrameBytes)
			}
		}
	}()
	closers = append(closers, func() { close(stop); <-done })
	cl, err := broker.NewClusterClient(links, retry)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return cl, cleanup, nil
}
