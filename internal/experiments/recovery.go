package experiments

import (
	"fmt"
	"strconv"
	"time"

	"crayfish/internal/core"
	"crayfish/internal/faults"
)

// RecoveryFaultInjection runs the chaos scenario: a deterministic fault
// plan fires while the FFNN workload streams — drops, duplicates, and
// delays at the broker boundary plus a mid-run serving outage (a
// scorer-error window for embedded serving, a daemon crash/restart for
// external) — and the report books the damage: how many records the
// plan destroyed, how many the pipeline lost beyond that (none, on a
// clean recovery), how long it needed to catch up after the last fault
// window closed, and the p95 latency of the records scored while the
// outage was open.
func RecoveryFaultInjection(opts Options) (*Report, error) {
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

		var ttrs, degs []time.Duration
		lost := 0
		var last *core.RecoveryResult
		for run := 0; run < o.Runs; run++ {
			cfg.Workload.Seed = int64(run + 1)
			res, err := (&core.Runner{}).RunRecovery(cfg, plan)
			if err != nil {
				return nil, fmt.Errorf("recovery %s/%s: %w", p.engine, p.serving.Tool, err)
			}
			if res.Result.EngineErr != nil {
				return nil, fmt.Errorf("recovery %s/%s: engine: %w", p.engine, p.serving.Tool, res.Result.EngineErr)
			}
			if res.Lost > lost {
				lost = res.Lost
			}
			if res.Recovered {
				ttrs = append(ttrs, res.TimeToRecover)
			}
			if res.DegradedSamples > 0 {
				degs = append(degs, res.DegradedP95)
			}
			last = res
			o.logf("recovery %s/%s run %d: lost=%d dup=%d ttr=%v degraded=%d",
				p.engine, p.serving.Tool, run, res.Lost, res.Duplicated, res.TimeToRecover, res.DegradedSamples)
		}
		ttr, _ := aggregateRecovery(ttrs)
		deg, _ := aggregateRecovery(degs)
		degCell := "no samples in window"
		if deg >= 0 {
			degCell = fmtMs(deg)
		}
		r.AddRow(p.engine, string(p.serving.Mode)+" "+p.serving.Tool,
			strconv.Itoa(last.Produced), strconv.Itoa(last.Dropped), strconv.Itoa(last.Duplicated),
			strconv.Itoa(lost), fmtDurOrDash(ttr), degCell)
	}
	r.AddNote("the plan is seed-driven: replaying it over the same workload reproduces the fault log byte for byte")
	r.AddNote("lost counts records missing beyond the planned drops; 0 means the retries and breakers rode the outage out")
	return r, nil
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
