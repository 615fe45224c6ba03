package core

import (
	"fmt"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/faults"
	"crayfish/internal/resilience"
	"crayfish/internal/serving"
)

// RecoveryResult is the outcome of a fault-injection run: the usual
// measurement plus the loss/duplication books and recovery timings.
type RecoveryResult struct {
	// Result is the ordinary run outcome (latency/throughput metrics,
	// telemetry snapshot).
	Result *Result
	// FaultLog is the injector's canonical log (faults.FormatLog). Two
	// runs of the same plan over the same workload produce identical
	// bytes — the replay artefact.
	FaultLog string
	// Produced counts events the producer generated; Dropped and
	// Duplicated count broker-boundary message faults; Accounted counts
	// unique batches the output consumer measured. Lost = Produced −
	// Dropped − Accounted: records the pipeline failed to deliver beyond
	// the planned drops (0 on a clean recovery; on a replicated cluster
	// this is acked-record loss, which the high-watermark ack gate keeps
	// at 0 while every partition keeps a live in-sync replica).
	Produced   int
	Dropped    int
	Duplicated int
	Accounted  int
	Lost       int
	// Recovered reports whether the consumer accounted for every
	// expected record before the drain deadline.
	Recovered bool
	// TimeToRecover is how long after the last planned fault window
	// closed the pipeline needed to account for every expected record
	// (0 when the pipeline was already caught up, meaningless unless
	// Recovered).
	TimeToRecover time.Duration
	// DegradedP95 is the p95 end-to-end latency of the samples that
	// completed while fault windows were open; DegradedSamples counts
	// them.
	DegradedP95     time.Duration
	DegradedSamples int
	// Failovers counts the leader elections the controller performed,
	// and LeaderEpoch is the highest epoch any partition reached: 0 and
	// 1 on a run no broker crash touched.
	Failovers   int
	LeaderEpoch int
}

// ClusterSpec sizes the broker cluster a fault run executes against.
// The zero value is one node.
type ClusterSpec struct {
	// Nodes is the broker count (default 1). Every partition has a
	// replica on every node.
	Nodes int
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

// The fault run cluster's fixed timings.
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

// RunRecovery executes one experiment on a private broker cluster while
// the fault plan fires: the partition leaders apply the plan's message
// faults, timed events crash/restart the external serving daemon (when
// cfg serves externally), open scorer-error windows and kill or revive
// named broker nodes (the controller elects a new leader from the ISR
// and fences the old epoch), and the SUT's clients ride the faults out
// with retries, circuit breakers and the partition-aware client's
// re-routing. The run then reports time-to-recover, the loss/duplication
// accounting and the failovers.
//
// Fault runs need the fault hook at the brokers' produce boundary, so
// they always build their own cluster; a Runner with an overriding
// Transport is rejected.
func (r *Runner) RunRecovery(cfg Config, plan faults.Plan, spec ClusterSpec) (*RecoveryResult, error) {
	if r.Transport != nil {
		return nil, fmt.Errorf("core: fault runs own their broker cluster (Transport override set)")
	}
	spec.Nodes = max(spec.Nodes, 1)
	inj, err := faults.New(plan)
	if err != nil {
		return nil, err
	}
	if reg := cfg.Telemetry; reg != nil {
		inj.OnInject(func(k faults.Kind) {
			reg.Counter("faults.injected." + string(k)).Inc()
		})
	}
	scorer, cleanup, err := prepare(&cfg, inj)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	cluster, err := broker.NewCluster(broker.ClusterConfig{
		Nodes:             spec.Nodes,
		ReplicationFactor: spec.Nodes,
		Broker:            brokerConfig(cfg, inj),
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
	cluster.Bind(inj)

	// Torn-frame chaos runs while the workload is live and the planned
	// faults are in flight, then stops: an unbounded tear schedule would
	// sever every response once drain traffic goes sparse (one armed tear
	// is always pending), turning a bounded outage into a permanent one.
	chaosFor := spec.TornFrameFor
	if chaosFor <= 0 {
		chaosFor = max(plan.LastWindowEnd(), cfg.Workload.Duration)
	}
	if chaosFor <= 0 {
		chaosFor = time.Second
	}
	transport, wireCleanup, err := clusterTransport(cluster, spec, chaosFor, recoveryRetry(plan))
	if err != nil {
		return nil, err
	}
	defer wireCleanup()

	res, err := r.measure(cfg, transport, scorer, &faultRun{plan: plan, inj: inj})
	if err != nil {
		return nil, err
	}
	// Every election bumps exactly one partition's epoch by one from its
	// floor of 1, so the failover count is recoverable from the final
	// view without telemetry.
	for _, states := range cluster.View().Partitions {
		for _, st := range states {
			res.Failovers += st.Epoch - 1
			res.LeaderEpoch = max(res.LeaderEpoch, st.Epoch)
		}
	}
	return res, nil
}

// clusterTransport builds the client transport for a fault run: the
// in-process partition-aware client by default, or — with torn frames
// enabled — RemoteClients dialed through per-node fault proxies, with a
// chaos goroutine re-arming a mid-frame tear on every link at the
// configured period for chaosFor, then going quiet.
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

// recoveryRetry builds the job-level retry policy for a fault plan: the
// wall-time budget covers the longest planned fault window plus slack,
// so records arriving mid-outage wait the outage out instead of being
// dropped.
func recoveryRetry(plan faults.Plan) *resilience.Retry {
	var maxWindow time.Duration
	for _, e := range plan.Events {
		if e.Duration > maxWindow {
			maxWindow = e.Duration
		}
	}
	return &resilience.Retry{
		MaxElapsed: maxWindow + 2*time.Second,
		BaseDelay:  time.Millisecond,
		MaxDelay:   20 * time.Millisecond,
	}
}

// degradedLatency computes the p95 end-to-end latency over the samples
// whose measurement completed inside a planned fault window.
func degradedLatency(samples []Sample, start time.Time, plan faults.Plan) (time.Duration, int) {
	var degraded []Sample
	for _, s := range samples {
		off := s.End.Sub(start)
		for _, e := range plan.Events {
			if off >= e.At && off < e.At+e.Duration {
				degraded = append(degraded, s)
				break
			}
		}
	}
	if len(degraded) == 0 {
		return 0, 0
	}
	return latencyStats(degraded).P95, len(degraded)
}

// faultScorer sits between the transform and the real scorer, applying
// the injector's lazy fault windows: a scorer-error window fails the
// call retryably.
type faultScorer struct {
	inner serving.Scorer
	inj   *faults.Injector
}

func (f *faultScorer) Name() string    { return f.inner.Name() }
func (f *faultScorer) InputLen() int   { return f.inner.InputLen() }
func (f *faultScorer) OutputSize() int { return f.inner.OutputSize() }

// Score injects the configured fault, then defers to the wrapped
// scorer under the same buffer-ownership contract.
//
//lint:lent inputs
func (f *faultScorer) Score(inputs []float32, n int) ([]float32, error) {
	if err := f.inj.ScorerFault(); err != nil {
		return nil, err
	}
	return f.inner.Score(inputs, n)
}
