package experiments

import (
	"strconv"
	"time"

	"crayfish/internal/core"
	"crayfish/internal/faults"
	"crayfish/internal/loadgen"
)

// brokerFailover runs the replicated-cluster chaos scenario: the FFNN
// workload streams through a 3-node broker cluster at replication
// factor 3 under the MLPerf server scenario's Poisson offered load,
// while the fault plan kills the partition leader node mid-production
// and torn-frame chaos severs client responses mid-frame. The report
// books the guarantees under test — acked-record loss (must be 0: the
// high-watermark ack gate), the failover count and the epoch the
// elections reached, time-to-recover after the crash window closes,
// the degraded-window p95, and whether repeated runs replayed the
// fault log byte for byte.
func brokerFailover(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Failover",
		Title:  "Replicated-broker leader failover (FFNN, mp=1; 3 nodes, R=3, leader kill + torn frames under the server scenario)",
		Header: []string{"engine", "serving", "produced", "acked lost", "failovers", "max epoch", "recovery (avg)", "degraded p95", "replay"},
	}
	// Production is pinned by event count and spread over the first half
	// of the run by the server scenario's Poisson arrivals, leaving the
	// second half to drain the failover backlog.
	const maxEvents = 120
	d := o.scaled(2 * time.Second)
	rate := 2 * maxEvents / d.Seconds()
	plan := faults.Plan{
		Seed: 42,
		Events: []faults.Event{
			// node-1 leads data partitions under round-robin placement
			// (node 0 is the controller/coordinator seat), so this kill
			// forces real elections; timed events only, so the fault log
			// is a pure function of the plan and must replay identically.
			{Kind: faults.BrokerCrash, At: d / 8, Duration: d / 4, Target: "node-1"},
		},
	}
	// Tears land throughout the production phase, then stop so the drain
	// measures recovery rather than prolonging the outage. The floor
	// keeps the period above the cost of riding one tear out (redial +
	// retry); below it the producer crawls instead of streaming.
	cluster := core.ClusterSpec{
		Nodes:          3,
		TornFrameEvery: max(d/10, 25*time.Millisecond),
		TornFrameFor:   d,
	}
	pairs := []struct {
		engine  string
		serving core.ServingConfig
	}{
		{"flink", embeddedTool("onnx")},
		{"spark-ss", embeddedTool("onnx")},
	}
	// The replay contract needs at least two runs per pair.
	runs := max(o.Runs, 2)
	for _, p := range pairs {
		w := o.ffnnWorkload()
		w.MaxEvents = maxEvents
		// MaxEvents ends production on fast machines; the duration is a
		// generous backstop for slow runs. The margin is wider than the
		// single-broker recovery experiment's because every event here
		// crosses real TCP through a chaos proxy and waits out a
		// replicated ack — under the race detector that path runs an
		// order of magnitude slower than the in-process transport.
		w.Duration = d + 6*time.Second
		pol := loadgen.Scenario{Kind: loadgen.Server, TargetRate: rate, Seed: 7}.Policy()
		w.Load = &pol
		cfg := o.baseConfig(p.engine, p.serving, w, "ffnn", 1)
		// Every partition is replicated three ways with two follower
		// fetch loops; a small partition count keeps the fetcher fleet
		// proportionate while still exercising multi-partition leadership
		// (node-1 leads one partition per topic, so its death forces two
		// elections).
		cfg.Partitions = 2
		cfg.Cluster = cluster

		b, err := runFaults(o, "failover", cfg, plan, runs)
		if err != nil {
			return nil, err
		}
		r.addRow(p.engine, string(p.serving.Mode)+" "+p.serving.Tool,
			strconv.Itoa(b.last.Produced), strconv.Itoa(b.lost),
			strconv.Itoa(b.last.Failovers), strconv.Itoa(b.last.LeaderEpoch),
			b.ttr, b.degraded, b.replay)
	}
	r.addNote("acked lost counts records the broker acked and then failed to serve; the high-watermark gate keeps it at 0 across a single leader crash")
	r.addNote("the crash/restart schedule is timed-only, so every run's fault log is a pure function of the plan — 'byte-identical' is asserted, not assumed")
	return r, nil
}
