package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crayfish/internal/analysis/metricdoc"
	"crayfish/internal/batching"
	"crayfish/internal/faults"
	"crayfish/internal/loadgen"
	"crayfish/internal/telemetry"
)

// TestRunTelemetryContract runs a tiny instrumented experiment and checks
// that every metric documented in docs/OBSERVABILITY.md shows up in the
// final snapshot — with activity, unless the run cannot exercise it. The
// expected names come from the same contract parser the metricnames
// analyzer uses (internal/analysis/metricdoc), so the documented table is
// authoritative in exactly one place: registration drift fails
// crayfishlint, runtime drift fails here.
func TestRunTelemetryContract(t *testing.T) {
	reg := telemetry.New()
	cfg := Config{
		Workload: Workload{
			InputShape: []int{28, 28},
			BatchSize:  1,
			Load:       &loadgen.Policy{Process: loadgen.ProcessConstant, Rate: 300},
			Duration:   200 * time.Millisecond,
		},
		Engine:     "flink",
		Serving:    ServingConfig{Mode: Embedded, Tool: "onnx"},
		Model:      ModelSpec{Name: "ffnn"},
		Partitions: 4,
		Batching:   &batching.Policy{MaxBatch: 4},
		Telemetry:  reg,
	}
	res, err := (&Runner{}).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Telemetry
	if snap == nil {
		t.Fatal("run with Config.Telemetry returned no snapshot")
	}

	contract, err := metricdoc.ParseFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}

	// The fault/resilience families only exist under injection, so a
	// second, tiny recovery run (resilient external client, message
	// faults, a daemon crash/restart) instantiates them; its snapshot
	// answers for those rows.
	recReg := telemetry.New()
	recCfg := cfg
	recCfg.Telemetry = recReg
	recCfg.Serving = ServingConfig{Mode: External, Tool: "tf-serving"}
	recCfg.Workload.MaxEvents = 60
	recCfg.Workload.Duration = time.Second
	recRes, err := (&Runner{}).RunRecovery(recCfg, faults.Plan{
		Seed: 3,
		Rules: []faults.Rule{
			{Topic: "crayfish-in", Kind: faults.Drop, FromSeq: 5, ToSeq: 10},
		},
		Events: []faults.Event{
			{Kind: faults.Crash, At: 30 * time.Millisecond, Target: "tf-serving"},
			{Kind: faults.Restart, At: 90 * time.Millisecond, Target: "tf-serving"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	recSnap := recRes.Result.Telemetry

	// The broker.cluster.* family moves only when a node dies, so a
	// fourth tiny run drives a 3-node cluster through a leader crash:
	// node-1 leads one partition per topic under round-robin placement,
	// so its death forces real elections and moves the failover counter.
	clReg := telemetry.New()
	clCfg := cfg
	clCfg.Telemetry = clReg
	clCfg.Partitions = 2
	clCfg.Cluster = ClusterSpec{Nodes: 3}
	clCfg.Workload.MaxEvents = 60
	clCfg.Workload.Duration = time.Second
	clRes, err := (&Runner{}).RunRecovery(clCfg, faults.Plan{
		Seed: 9,
		Events: []faults.Event{
			{Kind: faults.BrokerCrash, At: 30 * time.Millisecond, Duration: 60 * time.Millisecond, Target: "node-1"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clSnap := clRes.Result.Telemetry
	if clRes.Lost != 0 {
		t.Errorf("cluster run lost %d acked records across the failover", clRes.Lost)
	}

	// scenario.verdict only exists on scenario-judged runs, so a third
	// tiny run through RunScenario instantiates it (the loadgen gauges
	// are registered by every producer run, so the clean run covers
	// them).
	scReg := telemetry.New()
	scCfg := cfg
	scCfg.Telemetry = scReg
	scRes, err := (&Runner{}).RunScenario(scCfg, loadgen.Scenario{
		Kind:         loadgen.Server,
		TargetRate:   300,
		Seed:         5,
		LatencyBound: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	scSnap := scRes.Telemetry
	if scRes.Verdict == nil {
		t.Fatal("scenario run returned no verdict")
	}

	// Documented metrics this run cannot move: a clean embedded run has
	// no failures, no duplicate deliveries, and no serving daemon; a
	// clean recovery has no abandoned records, and whether the *client*
	// retried (vs the job-level policy) depends on crash timing.
	// The batching run moves sps.batch.size and sps.batch.target. Its
	// one flink slot is the batcher's only registered submitter, so a
	// poll's partial tail ships by quorum and never waits out the
	// linger; whether a poll also fills a whole batch depends on arrival
	// timing, so size_flush may stay zero. Consumers park at
	// the broker between records, but at 300 events/s none need sit out
	// a whole broker.FetchMaxWait.
	zeroOK := map[string]bool{
		"broker.await.timeouts":         true,
		"sps.score.errors":              true,
		"sps.score.dropped":             true,
		"sps.score.retries":             true,
		"sps.batch.linger_flush":        true,
		"sps.batch.size_flush":          true,
		"serving.score.errors":          true,
		"consumer.duplicates":           true,
		"resilience.retries.tf-serving": true,
		"resilience.shed.tf-serving":    true,
	}
	const daemonOnly = "serving.server."

	// faultPathNames instantiates the fault/resilience families with
	// the names the recovery run above produces; nil means the metric
	// belongs to the clean run.
	faultPathNames := func(m metricdoc.Metric) []string {
		switch {
		case m.Name == "sps.score.retries" || m.Name == "sps.score.dropped":
			return []string{m.Name}
		case m.Wildcard() && strings.HasPrefix(m.Prefix(), "resilience."):
			return []string{m.Prefix() + "tf-serving"}
		case m.Wildcard() && m.Prefix() == "faults.injected.":
			return []string{m.Prefix() + "drop", m.Prefix() + "crash", m.Prefix() + "restart"}
		}
		return nil
	}

	var activeCounters []string
	for _, m := range contract.Metrics {
		names := []string{m.Name}
		from := snap
		if fp := faultPathNames(m); fp != nil {
			names, from = fp, recSnap
		} else if m.Name == "scenario.verdict" {
			from = scSnap
		} else if strings.HasPrefix(m.Name, "broker.cluster.") {
			// The replication family answers from the cluster run; the
			// leadership wildcard instantiates per topic-partition.
			from = clSnap
			if m.Wildcard() {
				names = nil
				for _, topic := range []string{"crayfish-in", "crayfish-out"} {
					for p := 0; p < clCfg.Partitions; p++ {
						names = append(names, fmt.Sprintf("%s%s-%d", m.Prefix(), topic, p))
					}
				}
			}
		} else if m.Wildcard() {
			// The remaining wildcard family is the per-topic backlog;
			// the driver's fixed topics instantiate it.
			names = []string{m.Prefix() + "crayfish-in", m.Prefix() + "crayfish-out"}
		}
		for _, name := range names {
			if strings.HasPrefix(name, daemonOnly) {
				continue
			}
			switch m.Kind {
			case metricdoc.Counter:
				v, ok := from.Counters[name]
				if !ok {
					t.Errorf("documented counter %s not in snapshot", name)
				} else if !zeroOK[name] {
					if v <= 0 {
						t.Errorf("counter %s = %d, want > 0", name, v)
					}
					if from == snap {
						activeCounters = append(activeCounters, name)
					}
				}
			case metricdoc.Histogram:
				h, ok := from.Histograms[name]
				if !ok {
					t.Errorf("documented histogram %s not in snapshot", name)
				} else if !zeroOK[name] && h.Count <= 0 {
					t.Errorf("histogram %s empty (%+v)", name, h)
				}
			case metricdoc.Gauge:
				if _, ok := from.Gauges[name]; !ok {
					t.Errorf("documented gauge %s not in snapshot", name)
				}
			}
		}
	}

	// The recovery run's books must still balance while it feeds the
	// fault-path rows: planned drops only, everything else accounted.
	if recRes.Lost != 0 || recRes.Dropped != 5 {
		t.Errorf("recovery run books: lost=%d dropped=%d, want 0 and 5", recRes.Lost, recRes.Dropped)
	}

	// Consistency across stages: with the micro-batcher on, every
	// record lands in exactly one coalesced batch (histogram sum) and
	// the scorer runs once per flush, never more often than per record.
	if got, want := snap.Histograms["sps.batch.size"].Sum, snap.Counters["sps.score.calls"]; got != want {
		t.Errorf("sps.batch.size sum %d != sps.score.calls %d", got, want)
	}
	if got, want := snap.Counters["serving.score.calls"], snap.Histograms["sps.batch.size"].Count; got != want {
		t.Errorf("serving.score.calls %d != %d batch flushes", got, want)
	}
	flushes := snap.Counters["sps.batch.size_flush"] + snap.Counters["sps.batch.quorum_flush"] + snap.Counters["sps.batch.linger_flush"]
	if got := snap.Histograms["sps.batch.size"].Count; flushes != got {
		t.Errorf("size + quorum + linger flushes = %d, but %d batches were recorded", flushes, got)
	}
	if got := snap.Counters["sps.batch.linger_flush"]; got != 0 {
		t.Errorf("sps.batch.linger_flush = %d with the slot as the only submitter, want 0", got)
	}
	if got := snap.Gauges["sps.batch.submitters"]; got != 0 {
		t.Errorf("sps.batch.submitters = %d after the job stopped, want 0", got)
	}
	if got, want := snap.Counters["consumer.samples"], int64(res.Metrics.Consumed); got != want {
		t.Errorf("consumer.samples %d != Metrics.Consumed %d", got, want)
	}
	// The scorer latency is a component of the SPS transform latency.
	if snap.Histograms["serving.score.latency_ns"].Sum > snap.Histograms["sps.score.latency_ns"].Sum {
		t.Errorf("serving latency sum exceeds enclosing sps transform sum")
	}

	text := snap.Format()
	for _, name := range activeCounters {
		if !strings.Contains(text, name) {
			t.Errorf("text snapshot missing %s", name)
		}
	}
}
