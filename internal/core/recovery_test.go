package core

import (
	"strings"
	"testing"
	"time"

	"crayfish/internal/batching"
	"crayfish/internal/faults"
	"crayfish/internal/telemetry"
)

// recoveryConfig pins MaxEvents so the fault plan's per-sequence message
// verdicts hit the same records in every run.
func recoveryConfig(engine string, serving ServingConfig) Config {
	cfg := quickConfig(engine, serving)
	cfg.Workload.MaxEvents = 120
	cfg.Workload.Load = constantLoad(600)
	cfg.Workload.Duration = time.Second
	return cfg
}

func messagePlan() faults.Plan {
	return faults.Plan{
		Seed: 42,
		Rules: []faults.Rule{
			{Topic: InputTopic, Kind: faults.Drop, FromSeq: 10, ToSeq: 16},
			{Topic: InputTopic, Kind: faults.Duplicate, FromSeq: 40, ToSeq: 44},
			{Topic: InputTopic, Kind: faults.Delay, FromSeq: 60, ToSeq: 64, Delay: time.Millisecond},
		},
	}
}

// TestRunRecoveryAccountsMessageFaults drops, duplicates, and delays
// records at the broker boundary and checks the books balance: nothing
// lost beyond the planned drops, every duplicate deduplicated by the
// consumer's seen-set.
func TestRunRecoveryAccountsMessageFaults(t *testing.T) {
	r := &Runner{}
	cfg := recoveryConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	cfg.Telemetry = telemetry.New()
	res, err := r.RunRecovery(cfg, messagePlan())
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.EngineErr != nil {
		t.Fatalf("engine error: %v", res.Result.EngineErr)
	}
	if res.Produced != 120 {
		t.Fatalf("produced %d, want 120", res.Produced)
	}
	if res.Dropped != 6 {
		t.Fatalf("dropped %d, want 6", res.Dropped)
	}
	if !res.Recovered || res.Lost != 0 {
		t.Fatalf("recovered=%v lost=%d, want clean recovery", res.Recovered, res.Lost)
	}
	if res.Accounted != res.Produced-res.Dropped {
		t.Fatalf("accounted %d of %d survivors", res.Accounted, res.Produced-res.Dropped)
	}
	// 4 duplicated records reach the consumer twice; the seen-set
	// filters them out of the measurement.
	if res.Duplicated != 4 {
		t.Fatalf("duplicated %d, want 4", res.Duplicated)
	}
	snap := res.Result.Telemetry
	if snap == nil {
		t.Fatal("no telemetry snapshot")
	}
	counters := snap.Counters
	if counters["faults.injected.drop"] != 6 || counters["faults.injected.duplicate"] != 4 {
		t.Fatalf("faults.injected counters: %v", counters)
	}
	if counters["consumer.duplicates"] != 4 {
		t.Fatalf("consumer.duplicates = %d, want 4", counters["consumer.duplicates"])
	}
	// One node is a cluster no crash touched, and its consumers park at
	// the broker between records as they do on every other run.
	if res.Failovers != 0 || res.LeaderEpoch != 1 {
		t.Fatalf("failovers=%d epoch=%d on one node, want 0 and 1", res.Failovers, res.LeaderEpoch)
	}
	if counters["broker.await.parked"] == 0 {
		t.Fatal("broker.await.parked = 0: no consumer parked at the node")
	}
}

// TestRunRecoveryDeterministicReplay runs the same plan over the same
// pinned workload twice: the fault logs must be byte-identical and the
// loss/duplication accounting equal — the package's replay contract.
func TestRunRecoveryDeterministicReplay(t *testing.T) {
	plan := messagePlan()
	cfg := recoveryConfig("kafka-streams", ServingConfig{Mode: Embedded, Tool: "onnx"})
	run := func() *RecoveryResult {
		t.Helper()
		res, err := (&Runner{}).RunRecovery(cfg, plan)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FaultLog != b.FaultLog {
		t.Fatalf("fault logs differ:\n--- run 1\n%s--- run 2\n%s", a.FaultLog, b.FaultLog)
	}
	if a.FaultLog == "" {
		t.Fatal("empty fault log")
	}
	if a.Dropped != b.Dropped || a.Duplicated != b.Duplicated || a.Lost != b.Lost {
		t.Fatalf("accounting differs: run1 drop=%d dup=%d lost=%d, run2 drop=%d dup=%d lost=%d",
			a.Dropped, a.Duplicated, a.Lost, b.Dropped, b.Duplicated, b.Lost)
	}
}

// TestRunRecoveryHonoursBatching: a fault run is the ordinary pipeline
// with an injector firing, so Config.Batching coalesces scorer calls
// there too and nothing is lost beyond the planned drops — and the fault
// log, a function of the plan and the produce sequence, is the unbatched
// run's byte for byte.
func TestRunRecoveryHonoursBatching(t *testing.T) {
	plan := messagePlan()
	run := func(policy *batching.Policy) (*RecoveryResult, int64) {
		t.Helper()
		cfg := recoveryConfig("kafka-streams", ServingConfig{Mode: Embedded, Tool: "onnx"})
		cfg.Batching = policy
		cfg.Telemetry = telemetry.New()
		res, err := (&Runner{}).RunRecovery(cfg, plan)
		if err != nil {
			t.Fatal(err)
		}
		if res.Result.EngineErr != nil {
			t.Fatalf("engine error: %v", res.Result.EngineErr)
		}
		counters := res.Result.Telemetry.Counters
		return res, counters["sps.batch.size_flush"] + counters["sps.batch.quorum_flush"] + counters["sps.batch.linger_flush"]
	}
	plain, plainBatches := run(nil)
	batched, batches := run(&batching.Policy{MaxBatch: 4})
	if plainBatches != 0 || batches == 0 {
		t.Fatalf("sps.batch.* flushes: %d unbatched, %d with Batching set; want 0 and > 0", plainBatches, batches)
	}
	if !batched.Recovered || batched.Lost != 0 || batched.Dropped != 6 {
		t.Fatalf("recovered=%v lost=%d dropped=%d with Batching set, want a clean recovery past 6 planned drops",
			batched.Recovered, batched.Lost, batched.Dropped)
	}
	if batched.FaultLog != plain.FaultLog {
		t.Fatalf("fault logs differ:\n--- unbatched\n%s--- batched\n%s", plain.FaultLog, batched.FaultLog)
	}
}

// TestRunRecoveryScorerErrorWindow opens a scorer-error window mid-run:
// the job-level retry policy must ride it out with zero lost records,
// and the degraded-window stats must cover the outage.
func TestRunRecoveryScorerErrorWindow(t *testing.T) {
	r := &Runner{}
	cfg := recoveryConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	cfg.Telemetry = telemetry.New()
	plan := faults.Plan{
		Seed: 7,
		Events: []faults.Event{
			{Kind: faults.ScorerError, At: 20 * time.Millisecond, Duration: 60 * time.Millisecond, Target: "onnx"},
		},
	}
	res, err := r.RunRecovery(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.EngineErr != nil {
		t.Fatalf("engine error: %v", res.Result.EngineErr)
	}
	if !res.Recovered || res.Lost != 0 {
		t.Fatalf("recovered=%v lost=%d after scorer-error window", res.Recovered, res.Lost)
	}
	snap := res.Result.Telemetry
	retries := snap.Counters["sps.score.retries"]
	injected := snap.Counters["faults.injected.scorer-error"]
	if injected == 0 {
		t.Fatal("scorer-error window never fired")
	}
	if retries == 0 {
		t.Fatal("no sps.score.retries recorded while riding out the window")
	}
}

// TestRunRecoveryExternalCrashRestart crashes the external serving
// daemon mid-run and restarts it: the resilient client (retry + breaker)
// and the job retry policy must deliver every surviving record.
func TestRunRecoveryExternalCrashRestart(t *testing.T) {
	r := &Runner{}
	cfg := recoveryConfig("kafka-streams", ServingConfig{Mode: External, Tool: "tf-serving"})
	cfg.Telemetry = telemetry.New()
	plan := faults.Plan{
		Seed: 7,
		Events: []faults.Event{
			{Kind: faults.Crash, At: 30 * time.Millisecond, Target: "tf-serving"},
			{Kind: faults.Restart, At: 120 * time.Millisecond, Duration: 0, Target: "tf-serving"},
		},
	}
	res, err := r.RunRecovery(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.EngineErr != nil {
		t.Fatalf("engine error: %v", res.Result.EngineErr)
	}
	if !res.Recovered || res.Lost != 0 {
		t.Fatalf("recovered=%v lost=%d after daemon crash/restart", res.Recovered, res.Lost)
	}
	counters := res.Result.Telemetry.Counters
	if counters["faults.injected.crash"] != 1 || counters["faults.injected.restart"] != 1 {
		t.Fatalf("lifecycle events: crash=%d restart=%d", counters["faults.injected.crash"], counters["faults.injected.restart"])
	}
	// The crash window must actually have exercised the resilient
	// client: either the client retried or the job-level policy did.
	if counters["resilience.retries.tf-serving"] == 0 && counters["sps.score.retries"] == 0 {
		t.Fatal("no retries recorded across the daemon outage")
	}
}

// failoverPlan kills node-1 mid-run and revives it later — timed events
// only, so the fault log is a pure function of the plan and replays
// byte-identically.
func failoverPlan() faults.Plan {
	return faults.Plan{
		Seed: 42,
		Events: []faults.Event{
			{Kind: faults.BrokerCrash, At: 30 * time.Millisecond, Duration: 80 * time.Millisecond, Target: "node-1"},
		},
	}
}

// TestRunClusterRecoveryLeaderFailover kills a partition leader inside
// a replicated cluster mid-run: the controller must fail leadership
// over, the client must re-route, and the books must balance with zero
// acked-record loss.
func TestRunClusterRecoveryLeaderFailover(t *testing.T) {
	cfg := recoveryConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	cfg.Telemetry = telemetry.New()
	cfg.Cluster.Nodes = 3
	res, err := (&Runner{}).RunRecovery(cfg, failoverPlan())
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.EngineErr != nil {
		t.Fatalf("engine error: %v", res.Result.EngineErr)
	}
	if !res.Recovered || res.Lost != 0 {
		t.Fatalf("recovered=%v lost=%d, want clean failover (acked loss must be 0)", res.Recovered, res.Lost)
	}
	if res.Produced != 120 {
		t.Fatalf("produced %d, want 120", res.Produced)
	}
	// node-1 leads partitions in both topics (round-robin placement), so
	// its death forces at least one election and an epoch bump.
	if res.Failovers < 1 || res.LeaderEpoch < 2 {
		t.Fatalf("failovers=%d epoch=%d, want at least one election", res.Failovers, res.LeaderEpoch)
	}
	if !strings.Contains(res.FaultLog, "broker-crash") || !strings.Contains(res.FaultLog, "broker-restart") {
		t.Fatalf("fault log missing broker events:\n%s", res.FaultLog)
	}
	snap := res.Result.Telemetry
	if snap == nil {
		t.Fatal("no telemetry snapshot")
	}
	if snap.Counters["broker.cluster.failovers"] < 1 {
		t.Fatalf("broker.cluster.failovers = %d, want >= 1", snap.Counters["broker.cluster.failovers"])
	}
	if snap.Gauges["broker.cluster.leader_epoch"] < 2 {
		t.Fatalf("broker.cluster.leader_epoch = %d, want >= 2", snap.Gauges["broker.cluster.leader_epoch"])
	}
}

// TestRunClusterRecoveryReplay runs the same failover plan over the
// same pinned workload twice: byte-identical fault logs and equal loss
// books — the replay contract extended to cluster runs.
func TestRunClusterRecoveryReplay(t *testing.T) {
	cfg := recoveryConfig("kafka-streams", ServingConfig{Mode: Embedded, Tool: "onnx"})
	cfg.Cluster.Nodes = 3
	run := func() *RecoveryResult {
		t.Helper()
		res, err := (&Runner{}).RunRecovery(cfg, failoverPlan())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FaultLog != b.FaultLog {
		t.Fatalf("fault logs differ:\n--- run 1\n%s--- run 2\n%s", a.FaultLog, b.FaultLog)
	}
	if a.FaultLog == "" {
		t.Fatal("empty fault log")
	}
	if a.Lost != b.Lost || a.Lost != 0 {
		t.Fatalf("loss books: run1=%d run2=%d, want 0", a.Lost, b.Lost)
	}
}

// TestRunClusterRecoveryTornFrames layers transport chaos on the
// failover: every client link crosses real TCP through a torn-frame
// proxy that severs responses mid-frame throughout the run. Retries
// must absorb both the tears and the leader kill with zero acked loss.
func TestRunClusterRecoveryTornFrames(t *testing.T) {
	cfg := recoveryConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	// 20ms between tears keeps the chaos rate meaningful (dozens of
	// severed responses per run) while leaving the race-detector build
	// enough headroom to complete round trips between them.
	cfg.Cluster = ClusterSpec{Nodes: 3, TornFrameEvery: 20 * time.Millisecond}
	res, err := (&Runner{}).RunRecovery(cfg, failoverPlan())
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.EngineErr != nil {
		t.Fatalf("engine error: %v", res.Result.EngineErr)
	}
	if !res.Recovered || res.Lost != 0 {
		t.Fatalf("recovered=%v lost=%d under torn frames, want clean failover", res.Recovered, res.Lost)
	}
}
