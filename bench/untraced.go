package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"crayfish/internal/core"
	"crayfish/internal/loadgen"
)

// runResult is one untraced run through the product's own core.Runner.
type runResult struct {
	res   *core.Result
	setup time.Duration // harness transport set-up + Runner.Run entry → RunStart
	mem   memDelta
}

// produced, and the events that count as failed: produced but not
// scored within the drain timeout, duplicates, or — when the engine
// reported an asynchronous error — all of them.
func (r *runResult) produced() int { return r.res.Metrics.Produced }

func (r *runResult) failed() int {
	if r.res.EngineErr != nil {
		return r.produced()
	}
	return r.produced() - r.res.Metrics.Consumed + r.res.Duplicates
}

// memDelta is what the Go runtime did over one run.
type memDelta struct {
	mallocs   uint64
	bytes     uint64
	gcPauseNs uint64
	heapPeak  uint64 // highest live-object bytes a 10 ms sampler saw; 0 unless asked for
}

// heapObjects is the runtime/metrics name of the bytes held by live and
// not-yet-swept heap objects; reading it does not stop the world.
const heapObjects = "/memory/classes/heap/objects:bytes"

// watchHeap samples the heap every 10 ms until stop closes and returns
// the highest reading.
func watchHeap(stop <-chan struct{}) uint64 {
	sample := []metrics.Sample{{Name: heapObjects}}
	var high uint64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > high {
			high = v
		}
		select {
		case <-stop:
			return high
		case <-tick.C:
		}
	}
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// runUntraced executes cfg through core.Runner with telemetry off. The
// set-up clock starts before the harness opens the broker hop, so a
// change that moves work from the run into set-up shows in setup_s.
func runUntraced(w *workload, cfg core.Config, trackHeap bool) (*runResult, error) {
	runtime.GC() // start every run from a collected heap so one run's garbage is not the next one's pause
	before := readMem()
	t0 := time.Now()
	transport, closeTransport, err := w.openTransport(nil, false)
	if err != nil {
		return nil, err
	}
	runner := core.Runner{Transport: transport, Codec: w.codec, DrainTimeout: drainTimeout}
	stopWatch := func() uint64 { return 0 }
	if trackHeap {
		stop, peak := make(chan struct{}), make(chan uint64, 1)
		go func() { peak <- watchHeap(stop) }()
		stopWatch = func() uint64 {
			close(stop)
			return <-peak
		}
	}
	res, err := runner.Run(cfg)
	heapPeak := stopWatch()
	if cerr := closeTransport(); err == nil && cerr != nil {
		err = fmt.Errorf("closing transport: %w", cerr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	after := readMem()
	out := &runResult{
		res:   res,
		setup: res.RunStart.Sub(t0),
		mem: memDelta{
			mallocs:   after.Mallocs - before.Mallocs,
			bytes:     after.TotalAlloc - before.TotalAlloc,
			gcPauseNs: after.PauseTotalNs - before.PauseTotalNs,
			heapPeak:  heapPeak,
		},
	}
	return out, nil
}

// drainRun pushes n events in as fast as the producer can and reports
// work completed per second: n ÷ (last output append − RunStart).
func drainRun(w *workload, seed int64, n int, trackHeap bool) (*runResult, float64, error) {
	cfg := w.config(seed, loadgen.Saturate(), drainTimeout, n)
	r, err := runUntraced(w, cfg, trackHeap)
	if err != nil {
		return nil, 0, err
	}
	var last time.Time
	for _, s := range r.res.Samples {
		if s.End.After(last) {
			last = s.End
		}
	}
	eps := ratio(float64(len(r.res.Samples)), last.Sub(r.res.RunStart).Seconds())
	return r, eps, nil
}

// openLoop is the analysis of one open-loop run with latency timed from
// when each event was due, not from when the generator got round to
// creating it: a stall then counts against every event it delayed.
type openLoop struct {
	// lat and late are per scored event, in ms, ordered by due time;
	// due is the offset the event was due at.
	due  []time.Duration
	lat  []float64
	late []float64

	latP50, latP99   float64   // median across windows of each window's percentile
	winP50           []float64 // each window's p50, in due-time order
	lateP50, lateP99 float64
	offeredShare     float64
	generatorBound   bool
	reason           string
}

// schedule recomputes the offsets the producer paced against: the
// policy is pure data, so the same policy yields the same offsets.
func schedule(p loadgen.Policy, d time.Duration) ([]time.Duration, error) {
	s, err := p.Schedule()
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	for {
		off, _, ok := s.Next()
		if !ok || off >= d {
			return out, nil
		}
		out = append(out, off)
	}
}

// openLoopRun offers Poisson(rate) for d and analyses the samples after
// the warm-up share, cut into equal windows by due time.
func openLoopRun(w *workload, seed int64, rate float64, d time.Duration, warm float64, windows int) (*runResult, *openLoop, error) {
	policy := loadgen.Poisson(rate, seed)
	offsets, err := schedule(policy, d)
	if err != nil {
		return nil, nil, err
	}
	r, err := runUntraced(w, w.config(seed, policy, d, 0), false)
	if err != nil {
		return nil, nil, err
	}
	ol := analyseOpenLoop(w, r.res.Samples, r.res.RunStart, offsets, r.produced(), d, warm, windows)
	return r, ol, nil
}

func analyseOpenLoop(w *workload, samples []core.Sample, runStart time.Time, offsets []time.Duration, produced int, d time.Duration, warm float64, windows int) *openLoop {
	ol := &openLoop{}
	ordered := append([]core.Sample(nil), samples...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	warmEnd := time.Duration(float64(d) * warm)
	var maxLate time.Duration
	for _, s := range ordered {
		if s.ID < 0 || int(s.ID) >= len(offsets) {
			continue // produced past the recomputed horizon: no due time to hold it to
		}
		off := offsets[s.ID]
		due := runStart.Add(off)
		late := s.Start.Sub(due)
		if late > maxLate {
			maxLate = late
		}
		if off < warmEnd {
			continue
		}
		ol.due = append(ol.due, off)
		ol.lat = append(ol.lat, float64(s.End.Sub(due))/1e6)
		ol.late = append(ol.late, float64(late)/1e6)
	}
	// An event due within the lateness the generator is allowed anyway
	// may be cut by the run deadline without the generator being at
	// fault, so the schedule is counted up to that much before the end.
	grace := time.Duration(w.sloMs / 4 * float64(time.Millisecond))
	scheduled := sort.Search(len(offsets), func(i int) bool { return offsets[i] >= d-grace })
	ol.offeredShare = ratio(float64(produced), float64(scheduled))

	// Percentiles are taken per window of due time and the median window
	// is reported, for latency and for generator lateness alike: one
	// scheduling hiccup of a few ms is 1 % of a second of events, so a
	// whole-run p99 reports the hiccup, not the pipeline.
	if windows < 1 {
		windows = 1
	}
	span := d - warmEnd
	var p50s, p99s, late50s, late99s []float64
	for i := 0; i < windows; i++ {
		lo := warmEnd + span*time.Duration(i)/time.Duration(windows)
		hi := warmEnd + span*time.Duration(i+1)/time.Duration(windows)
		var lat, late []float64
		for j, off := range ol.due {
			if off >= lo && off < hi {
				lat = append(lat, ol.lat[j])
				late = append(late, ol.late[j])
			}
		}
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		sort.Float64s(late)
		p50s = append(p50s, quantile(lat, 0.5))
		p99s = append(p99s, tailQuantile(lat))
		late50s = append(late50s, quantile(late, 0.5))
		late99s = append(late99s, tailQuantile(late))
	}
	ol.latP50, ol.latP99, ol.winP50 = median(p50s), median(p99s), p50s
	ol.lateP50, ol.lateP99 = median(late50s), median(late99s)

	// Generator health: a run whose generator, not the SUT, set the
	// numbers is reported as that and books no latency.
	switch {
	case maxLate >= loadgen.MaxScheduleDebt:
		ol.generatorBound, ol.reason = true, "pacer forgave schedule debt: recomputed due times no longer hold"
	case ol.lateP99 > w.sloMs/4:
		ol.generatorBound, ol.reason = true, fmt.Sprintf("generator late p99 %.2f ms > slo/4", ol.lateP99)
	case ol.offeredShare < 0.99:
		ol.generatorBound, ol.reason = true, fmt.Sprintf("generator offered %.3f of its schedule", ol.offeredShare)
	}
	return ol
}

// A ladder step discards its first quarter and judges the rest in three
// windows.
const (
	stepWarm    = 0.25
	stepWindows = 3
)

// ladderStep is one fixed-rate step of the capacity ladder.
type ladderStep struct {
	Rate           float64 `json:"rate_eps"`
	P99Ms          float64 `json:"p99_ms"`
	LateP99Ms      float64 `json:"generator_late_p99_ms"`
	Pass           bool    `json:"pass"`
	GeneratorBound bool    `json:"generator_bound,omitempty"`
	Why            string  `json:"why,omitempty"`
}

// ladderRun climbs the fixed rates, each step its own
// Runner.Run, and stops at the first failing step. A step passes when
// nothing failed, its tail latency from due time is within the SLO and
// the backlog is not growing: the median latency of the step's last
// quarter is at most twice that of its second quarter.
func ladderRun(w *workload, seed int64, rates []float64, step time.Duration) (runs []*runResult, steps []ladderStep, sloRate float64, err error) {
	for _, rate := range rates {
		r, ol, err := openLoopRun(w, seed, rate, step, stepWarm, stepWindows)
		if err != nil {
			return runs, steps, sloRate, err
		}
		runs = append(runs, r)
		st := ladderStep{Rate: rate, P99Ms: ol.latP99, GeneratorBound: ol.generatorBound}
		q2 := windowMedian(ol, step, 0.25, 0.50)
		q4 := windowMedian(ol, step, 0.75, 1.00)
		st.LateP99Ms = ol.lateP99
		switch {
		case ol.generatorBound:
			st.Why = ol.reason
		case r.failed() > 0:
			st.Why = fmt.Sprintf("%d of %d events failed", r.failed(), r.produced())
		case ol.latP99 > w.sloMs:
			st.Why = fmt.Sprintf("p99 %.2f ms > slo %.0f ms", ol.latP99, w.sloMs)
		case q4 > 2*q2:
			st.Why = fmt.Sprintf("backlog growing: last-quarter median %.2f ms > 2 x second-quarter %.2f ms", q4, q2)
		default:
			st.Pass = true
		}
		steps = append(steps, st)
		if !st.Pass {
			break
		}
		sloRate = rate
	}
	return runs, steps, sloRate, nil
}

// windowMedian is the median latency of events due in [lo, hi) × d.
func windowMedian(ol *openLoop, d time.Duration, lo, hi float64) float64 {
	a, b := time.Duration(float64(d)*lo), time.Duration(float64(d)*hi)
	var win []float64
	for i, off := range ol.due {
		if off >= a && off < b {
			win = append(win, ol.lat[i])
		}
	}
	return median(win)
}
