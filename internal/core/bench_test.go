package core

import (
	"os"
	"strconv"
	"testing"
	"time"

	"crayfish/internal/faults"
	"crayfish/internal/loadgen"
)

// benchScale resolves the experiment scale for benchmark runs. The full
// profile (scale 1.0) reproduces the paper's durations scaled to seconds;
// CI-sized machines default to 0.1. Override with CRAYFISH_BENCH_SCALE.
func benchScale() float64 {
	if s := os.Getenv("CRAYFISH_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.1
}

// BenchmarkBrokerFailover measures leader-failover recovery on the
// replicated 3-node cluster (docs/CLUSTER.md): node-1 crashes mid-run,
// the controller elects new leaders from the ISR, and the run must
// lose zero acked records. Time-to-recover after the crash window is
// reported as recovery_ms and lands in BENCH_inference.json as
// failover_recovery_ms, so replication-path speedups move a measured
// recovery number.
func BenchmarkBrokerFailover(b *testing.B) {
	scale := benchScale()
	d := time.Duration(2 * float64(time.Second) * scale)
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	const maxEvents = 120
	cfg := Config{
		Workload: Workload{
			InputShape: []int{28, 28},
			BatchSize:  1,
			MaxEvents:  maxEvents,
			Load:       &loadgen.Policy{Process: loadgen.ProcessConstant, Rate: 2 * maxEvents / d.Seconds()},
			Duration:   d + 6*time.Second,
			Seed:       1,
		},
		Engine:     "flink",
		Serving:    ServingConfig{Mode: Embedded, Tool: "onnx"},
		Model:      ModelSpec{Name: "ffnn", Seed: 1},
		Partitions: 2,
		Cluster:    ClusterSpec{Nodes: 3},
	}
	plan := faults.Plan{
		Seed: 42,
		Events: []faults.Event{
			{Kind: faults.BrokerCrash, At: d / 8, Duration: d / 4, Target: "node-1"},
		},
	}
	var ttrMs float64
	for i := 0; i < b.N; i++ {
		res, err := (&Runner{}).RunRecovery(cfg, plan)
		if err != nil {
			b.Fatal(err)
		}
		if res.Result.EngineErr != nil {
			b.Fatal(res.Result.EngineErr)
		}
		if res.Lost != 0 {
			b.Fatalf("acked records lost across the failover: %d", res.Lost)
		}
		ttrMs = float64(res.TimeToRecover) / float64(time.Millisecond)
		if i == 0 {
			b.Logf("failovers=%d epoch=%d ttr=%v", res.Failovers, res.LeaderEpoch, res.TimeToRecover)
		}
	}
	b.ReportMetric(ttrMs, "recovery_ms")
}

// BenchmarkServerCapacitySweep measures the server scenario's capacity:
// the highest offered Poisson rate whose p99 stays under the bound on
// flink/onnx. The knee is reported as capacity_rps and lands in
// BENCH_inference.json as server_capacity_rps, so later speedups move a
// measured capacity number.
func BenchmarkServerCapacitySweep(b *testing.B) {
	scale := benchScale()
	d := time.Duration(2 * float64(time.Second) * scale)
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	cfg := Config{
		Workload: Workload{
			InputShape: []int{28, 28},
			BatchSize:  1,
			Duration:   d,
			Seed:       1,
		},
		Engine:     "flink",
		Serving:    ServingConfig{Mode: Embedded, Tool: "onnx"},
		Model:      ModelSpec{Name: "ffnn", Seed: 1},
		Partitions: 4,
	}
	sc := loadgen.Scenario{Kind: loadgen.Server, Seed: 7, LatencyBound: 250 * time.Millisecond}
	rates := []float64{250, 500, 1000, 2000, 4000, 8000, 16000}
	var capacity float64
	for i := 0; i < b.N; i++ {
		c, points, err := (&Runner{}).FindServerCapacity(cfg, sc, rates)
		if err != nil {
			b.Fatal(err)
		}
		capacity = c
		if i == 0 {
			for _, pt := range points {
				b.Logf("offered %.0f ev/s: %s", pt.Rate, pt.Result.Verdict)
			}
		}
	}
	b.ReportMetric(capacity, "capacity_rps")
}
