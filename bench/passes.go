package main

import (
	"fmt"
	"path/filepath"
	"time"

	"crayfish/internal/loadgen"
)

// plan is how one run's --seconds are spent. Every length scales with
// seconds/refSeconds; the rates and the SLO never do.
type plan struct {
	seconds float64
	smoke   bool
}

func (p plan) scale() float64 { return p.seconds / refSeconds }

func (p plan) dur(refSec float64) time.Duration {
	return time.Duration(refSec * p.scale() * float64(time.Second))
}

func (p plan) count(ref int) int {
	n := int(float64(ref) * p.scale())
	if n < 16 {
		n = 16
	}
	return n
}

// workloadReport is everything one workload produced in one invocation.
type workloadReport struct {
	EndToEnd       map[string]measurement `json:"end_to_end,omitempty"`
	PerLayer       map[string]measurement `json:"per_layer,omitempty"`
	Ladder         []ladderStep           `json:"ladder,omitempty"`
	GeneratorBound bool                   `json:"generator_bound"`
	Notes          []string               `json:"notes,omitempty"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	Checked        int                    `json:"outputs_checked"`
	Mismatched     int                    `json:"outputs_mismatched"`
}

func (r *workloadReport) count(runs ...*runResult) {
	for _, run := range runs {
		r.Attempted += run.produced()
		r.Failed += run.failed()
	}
}

// setupReps is how many one-event runs each round makes only to time
// set-up: set-up is a millisecond or a few on these workloads, so one
// sample says little and the reported figure is a median over these and
// every measuring run's own set-up.
const setupReps = 8

// endToEndPass makes the untraced runs behind the end-to-end metrics
// through core.Runner, in rounds of set-up repetitions, a drain and a
// hold. The rounds spread each metric's samples over the whole run: the
// box shares its cores with other tenants, and while one of them is busy
// (tens of seconds at a time) latency is 25-45 % up and throughput a
// quarter down. Such a period slows some rounds; a change to the program
// moves them all. So drain_eps is the best drain and lat_p50_ms the
// lower-quartile window: the figures of the undisturbed part of the run,
// as long as a quarter of it is undisturbed.
func endToEndPass(w *workload, seed int64, p plan) (*workloadReport, error) {
	rep := &workloadReport{}
	var setups, drains, windows []float64
	book := func(r *runResult) {
		rep.count(r)
		setups = append(setups, r.setup.Seconds())
	}
	reps := setupReps
	if p.smoke {
		reps = 1
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < reps; i++ {
			r, err := runUntraced(w, w.config(seed, loadgen.Saturate(), drainTimeout, 1), false)
			if err != nil {
				return nil, err
			}
			book(r)
		}

		// The drain goes before the hold: the first one also warms the
		// process (heap size, page faults) for the latency run after it.
		dr, eps, err := drainRun(w, seed, p.count(w.drainN)/rounds, false)
		if err != nil {
			return nil, err
		}
		book(dr)
		drains = append(drains, eps)

		hold, ol, err := openLoopRun(w, seed, w.holdRate, p.dur(holdSec), holdWarm, holdWindows)
		if err != nil {
			return nil, err
		}
		book(hold)
		if ol.generatorBound {
			rep.GeneratorBound = true
			rep.Notes = append(rep.Notes, "hold is generator-bound, its latency is not a SUT number: "+ol.reason)
		}
		windows = append(windows, ol.winP50...)
	}
	rep.EndToEnd = pick(endToEnd, map[string]float64{
		"setup_s":    median(setups),
		"drain_eps":  highest(drains),
		"lat_p50_ms": lowerQuartile(windows),
	})
	return rep, nil
}

// Each round's hold discards its first seventh and cuts the rest into
// three windows of 1.5 s; the traced run and its untraced baseline
// discard a quarter.
const (
	rounds      = 4
	holdSec     = 5.25
	holdWarm    = 1.0 / 7
	holdWindows = 3
	stepSec     = 1.5

	baselineSec     = 4.0
	baselineWarm    = 0.25
	baselineWindows = 3
	tracedSec       = 6.0
	tracedWarm      = 0.25
	tracedWindows   = 3
	liteDrainShare  = 0.4
	probeBudgetSec  = 0.2
	noopRecords     = 20000
	minOutputChecks = 200
)

// perLayerPass makes the runs behind the per-layer metrics: a short
// untraced hold (the baseline the tracing overhead is measured against,
// and the source of the generator and Go-runtime numbers), a short
// drain, the traced run and the ladder; probed are the invocation's
// probe results, which do not depend on the workload.
func perLayerPass(w *workload, seed int64, p plan, probed map[string]float64, outDir string) (*workloadReport, error) {
	rep := &workloadReport{}
	values := map[string]float64{}

	base, baseOL, err := openLoopRun(w, seed, w.holdRate, p.dur(baselineSec), baselineWarm, baselineWindows)
	if err != nil {
		return nil, err
	}
	rep.count(base)
	events := float64(base.produced())
	values["lat_p99_ms"] = baseOL.latP99
	values["loadgen.late_p50_ms"] = baseOL.lateP50
	values["loadgen.late_p99_ms"] = baseOL.lateP99
	values["loadgen.offered_share"] = baseOL.offeredShare
	values["go.mallocs_per_event"] = ratio(float64(base.mem.mallocs), events)
	values["go.alloc_kb_per_event"] = ratio(float64(base.mem.bytes)/1024, events)

	dr, _, err := drainRun(w, seed, p.count(int(float64(w.drainN)*liteDrainShare)), true)
	if err != nil {
		return nil, err
	}
	rep.count(dr)
	values["go.gc_pause_ms"] = float64(dr.mem.gcPauseNs) / 1e6
	values["go.heap_peak_mb"] = float64(dr.mem.heapPeak) / (1 << 20)

	checks := minOutputChecks
	if p.smoke {
		checks = 10
	}
	spanFile := ""
	if outDir != "" {
		spanFile = filepath.Join(outDir, "trace-"+w.name+".jsonl")
	}
	tr, err := tracedRun(w, seed, w.holdRate, p.dur(tracedSec), tracedWarm, tracedWindows, checks, spanFile)
	if err != nil {
		return nil, err
	}
	rep.Attempted += tr.produced
	rep.Failed += tr.failed()
	rep.Checked, rep.Mismatched = tr.checked, tr.mismatched
	if tr.engineErr != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("traced run: engine error: %v", tr.engineErr))
	}
	if tr.incomplete > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("traced run: %d of %d scored events missed a span boundary", tr.incomplete, tr.scored))
	}
	for k, v := range tr.metrics {
		values[k] = v
	}
	if tr.ol != nil {
		values["trace.overhead_share"] = ratio(tr.ol.latP50-baseOL.latP50, baseOL.latP50)
		if tr.ol.generatorBound || baseOL.generatorBound {
			rep.GeneratorBound = true
			rep.Notes = append(rep.Notes, "traced run or its baseline is generator-bound: "+tr.ol.reason+baseOL.reason)
		}
	}

	ladder := w.ladder
	if p.smoke && len(ladder) > 2 {
		ladder = ladder[:2]
	}
	runs, steps, sloRate, err := ladderRun(w, seed, ladder, p.dur(stepSec))
	if err != nil {
		return nil, err
	}
	rep.count(runs...)
	rep.Ladder = steps
	values["slo_rate_eps"] = sloRate

	for k, v := range probed {
		values[k] = v
	}
	values["fail_share"] = ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.PerLayer = pick(perLayer, values)
	return rep, nil
}
