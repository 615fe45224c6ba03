package experiments

import (
	"fmt"
	"strconv"
	"time"

	"crayfish/internal/core"
	"crayfish/internal/faults"
)

// recoveryFaultInjection runs the chaos scenario: a deterministic fault
// plan fires while the FFNN workload streams — drops, duplicates, and
// delays at the broker boundary plus a mid-run serving outage (a
// scorer-error window for embedded serving, a daemon crash/restart for
// external) — and the report books the damage: how many records the
// plan destroyed, how many the pipeline lost beyond that (none, on a
// clean recovery), how long it needed to catch up after the last fault
// window closed, and the p95 latency of the records scored while the
// outage was open.
func recoveryFaultInjection(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Recovery",
		Title:  "Fault injection and recovery (FFNN, mp=1; broker message faults + mid-run serving outage)",
		Header: []string{"engine", "serving", "produced", "dropped", "duplicated", "lost", "recovery (avg)", "degraded p95"},
	}
	// The workload is pinned by event count so the plan's per-sequence
	// verdicts hit the same records at every scale; the rate spreads
	// production over the first half of the run, leaving the second
	// half to drain the outage backlog.
	const maxEvents = 120
	d := o.scaled(2 * time.Second)
	pairs := []struct {
		engine  string
		serving core.ServingConfig
	}{
		{"flink", embeddedTool("onnx")},
		{"spark-ss", embeddedTool("onnx")},
		{"kafka-streams", externalTool("tf-serving")},
	}
	for _, p := range pairs {
		w := o.ffnnWorkload()
		w.MaxEvents = maxEvents
		// MaxEvents ends production on fast machines; the duration is a
		// generous backstop so a slow run (race detector, loaded CI) still
		// produces every event the plan's sequence windows target.
		w.Duration = d + 2*time.Second
		w.Load = openLoop(2 * maxEvents / d.Seconds())
		cfg := o.baseConfig(p.engine, p.serving, w, "ffnn", 1)
		plan := recoveryPlan(p.serving, d)

		b, err := runFaults(o, "recovery", cfg, plan, o.Runs)
		if err != nil {
			return nil, err
		}
		r.addRow(p.engine, string(p.serving.Mode)+" "+p.serving.Tool,
			strconv.Itoa(b.last.Produced), strconv.Itoa(b.last.Dropped), strconv.Itoa(b.last.Duplicated),
			strconv.Itoa(b.lost), b.ttr, b.degraded)
	}
	r.addNote("the plan is seed-driven: replaying it over the same workload reproduces the fault log byte for byte")
	r.addNote("lost counts records missing beyond the planned drops; 0 means the retries and breakers rode the outage out")
	return r, nil
}

// faultBooks is what a fault table keeps of one pair's runs: the last
// run's books, the worst loss of any run, the mean recovery time and
// degraded-window p95 as table cells, and whether every run replayed
// the first run's fault log byte for byte.
type faultBooks struct {
	last          *core.RecoveryResult
	lost          int
	ttr, degraded string
	replay        string
}

// runFaults runs one pair's fault run `runs` times, seeding the workload
// 1..runs, and books them. A run that fails or whose engine failed fails
// the table.
func runFaults(o Options, label string, cfg core.Config, plan faults.Plan, runs int) (*faultBooks, error) {
	b := &faultBooks{replay: "byte-identical", degraded: "no samples in window"}
	var ttrs, degs []time.Duration
	for run := 0; run < runs; run++ {
		cfg.Workload.Seed = int64(run + 1)
		res, err := (&core.Runner{}).RunRecovery(cfg, plan)
		if err == nil {
			err = res.Result.EngineErr
		}
		if err != nil {
			return nil, fmt.Errorf("%s %s/%s: %w", label, cfg.Engine, cfg.Serving.Tool, err)
		}
		b.lost = max(b.lost, res.Lost)
		if res.Recovered {
			ttrs = append(ttrs, res.TimeToRecover)
		}
		if res.DegradedSamples > 0 {
			degs = append(degs, res.DegradedP95)
		}
		if b.last != nil && res.FaultLog != b.last.FaultLog {
			b.replay = "DIVERGED"
		}
		b.last = res
		o.logf("%s %s/%s run %d: lost=%d dup=%d failovers=%d epoch=%d ttr=%v degraded=%d",
			label, cfg.Engine, cfg.Serving.Tool, run, res.Lost, res.Duplicated, res.Failovers, res.LeaderEpoch, res.TimeToRecover, res.DegradedSamples)
	}
	ttr, _ := aggregateRecovery(ttrs)
	b.ttr = fmtDurOrDash(ttr)
	if deg, _ := aggregateRecovery(degs); deg >= 0 {
		b.degraded = fmtMs(deg)
	}
	return b, nil
}

// recoveryPlan builds the scenario's fault plan: message faults over
// fixed sequence windows, plus an outage sized to the run — external
// serving gets a daemon crash with a later restart, embedded serving
// gets a scorer-error window of the same length.
func recoveryPlan(serving core.ServingConfig, d time.Duration) faults.Plan {
	plan := faults.Plan{
		Seed: 42,
		Rules: []faults.Rule{
			{Topic: core.InputTopic, Kind: faults.Drop, FromSeq: 10, ToSeq: 16},
			{Topic: core.InputTopic, Kind: faults.Duplicate, FromSeq: 40, ToSeq: 44},
			{Topic: core.InputTopic, Kind: faults.Delay, FromSeq: 60, ToSeq: 64, Delay: time.Millisecond},
		},
	}
	outageAt := d / 8
	outageLen := d / 4
	if serving.Mode == core.External {
		plan.Events = append(plan.Events,
			faults.Event{Kind: faults.Crash, At: outageAt, Target: serving.Tool},
			faults.Event{Kind: faults.Restart, At: outageAt + outageLen, Target: serving.Tool},
		)
	} else {
		plan.Events = append(plan.Events,
			faults.Event{Kind: faults.ScorerError, At: outageAt, Duration: outageLen, Target: serving.Tool},
		)
	}
	return plan
}
