package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"crayfish/internal/core"
	"crayfish/internal/loadgen"
	"crayfish/internal/model"
	"crayfish/internal/netsim"
	"crayfish/internal/serving"
	"crayfish/internal/sps"
	"crayfish/internal/telemetry"
)

// tracedEvent is one scored event's eight boundaries, in ns since the
// trace origin: due, created, input append, decode start, decode end,
// encode start, encode end, output append. Consecutive pairs are the
// seven stages.
type tracedEvent struct {
	id     int64
	bounds [len(stageNames) + 1]int64
}

type tracedResult struct {
	produced   int
	scored     int
	duplicates int
	engineErr  error
	incomplete int // scored events missing a boundary

	ol      *openLoop
	events  []tracedEvent // complete events, warm-up included
	metrics map[string]float64

	checked    int
	mismatched int
}

func (r *tracedResult) failed() int {
	if r.engineErr != nil {
		return r.produced
	}
	return r.produced - r.scored + r.duplicates + r.mismatched
}

// tracedRun assembles the pipeline core.Runner would — same broker,
// engine, codec, scorer, producer and consumer, from the same exported
// constructors — with a timing wrapper at every interface boundary and
// a telemetry registry attached, offers Poisson(rate) for d, and turns
// the spans into the per-layer metrics.
func tracedRun(w *workload, seed int64, rate float64, d time.Duration, warm float64, windows, minChecks int, spanFile string) (res *tracedResult, err error) {
	policy := loadgen.Poisson(rate, seed)
	offsets, err := schedule(policy, d)
	if err != nil {
		return nil, err
	}
	cfg := w.config(seed, policy, d, 0)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Spread the checks over the run, and stop at the number asked for:
	// a reference forward pass of the ResNet costs as much as scoring it.
	checkEvery := len(offsets) / (minChecks + 1)
	if checkEvery < 1 {
		checkEvery = 1
	}
	// Room for the schedule plus what a generator running a little over
	// its horizon may still emit.
	tr := newTracer(len(offsets)+len(offsets)/10+64, cfg.Partitions, checkEvery, minChecks)
	reg := telemetry.New()

	m, err := cfg.Model.Build()
	if err != nil {
		return nil, err
	}
	scorer, closeScorer, err := core.BuildScorerNet(cfg.Serving, m, cfg.ParallelismDefault, netsim.Loopback)
	if err != nil {
		return nil, err
	}
	defer closeScorer()
	scorer = serving.Instrument(wrapScorer(scorer, tr), reg)

	raw, closeTransport, err := w.openTransport(reg, true)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := closeTransport(); err == nil && cerr != nil {
			err = fmt.Errorf("closing transport: %w", cerr)
		}
	}()
	transport := wrapTransport(raw, tr)
	for _, topic := range []string{core.InputTopic, core.OutputTopic} {
		if err := transport.CreateTopic(topic, cfg.Partitions); err != nil {
			return nil, err
		}
	}

	engine, err := sps.New(cfg.Engine)
	if err != nil {
		return nil, err
	}
	sutCodec := &tracedCodec{inner: w.codec, role: roleSUT, tr: tr}
	job, err := engine.Run(sps.JobSpec{
		Transport:      transport,
		InputTopic:     core.InputTopic,
		OutputTopic:    core.OutputTopic,
		Group:          "crayfish-bench-traced",
		Transform:      tr.wrapTransform(core.MakeTransform(sutCodec, scorer)),
		BatchTransform: tr.wrapBatchTransform(core.MakeBatchTransform(sutCodec, scorer)),
		Batching:       cfg.Batching,
		Parallelism:    sps.Parallelism{Default: cfg.ParallelismDefault},
		Metrics:        reg,
	})
	if err != nil {
		return nil, err
	}

	oc, err := core.NewOutputConsumer(transport, core.OutputTopic, &tracedCodec{inner: w.codec, role: roleConsumer, tr: tr})
	if err != nil {
		_ = job.Stop() // the constructor's error is the one to report
		return nil, err
	}
	oc.Metrics = reg
	consumerStop := make(chan struct{})
	consumerDone := make(chan error, 1)
	go func() { consumerDone <- oc.Run(consumerStop) }()
	stopConsumer := func() error {
		close(consumerStop)
		return <-consumerDone
	}

	producer, err := core.NewInputProducer(transport, core.InputTopic, cfg.Workload, &tracedCodec{inner: w.codec, role: roleProducer, tr: tr})
	if err != nil {
		_ = job.Stop()
		_ = stopConsumer()
		return nil, err
	}
	producer.Metrics = reg

	runStart := time.Now()
	produced, prodErr := producer.Run(nil)
	deadline := time.Now().Add(drainTimeout)
	for oc.SampleCount() < produced && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	engineErr := job.Stop()
	if cerr := stopConsumer(); engineErr == nil {
		engineErr = cerr
	}
	if engineErr == nil {
		engineErr = prodErr
	}

	samples := oc.Samples()
	res = &tracedResult{
		produced:   produced,
		scored:     len(samples),
		duplicates: oc.Duplicates(),
		engineErr:  engineErr,
		metrics:    map[string]float64{},
	}
	if len(samples) == 0 {
		return res, nil
	}
	res.ol = analyseOpenLoop(w, samples, runStart, offsets, produced, d, warm, windows)

	tr.joinInput()
	var lastOut time.Time
	for _, s := range samples {
		if s.End.After(lastOut) {
			lastOut = s.End
		}
		if int(s.ID) >= len(offsets) {
			continue // emitted past the schedule's horizon: no due time to measure from
		}
		ev := tr.event(s.ID)
		if ev == nil {
			res.incomplete++
			continue
		}
		e := tracedEvent{id: s.ID}
		e.bounds = [...]int64{tr.at(runStart) + int64(offsets[s.ID]), ev.created, ev.appendIn, ev.decode0, ev.decode1, ev.encode0, ev.encode1, tr.at(s.End)}
		complete := true
		for _, b := range e.bounds[1:] {
			if b == 0 {
				complete = false
			}
		}
		if !complete {
			res.incomplete++
			continue
		}
		res.events = append(res.events, e)
	}
	sort.Slice(res.events, func(i, j int) bool { return res.events[i].id < res.events[j].id })

	wall := lastOut.Sub(runStart)
	warmEnd := tr.at(runStart) + int64(float64(d)*warm)
	stageMetrics(res, warmEnd)
	layerMetrics(res, tr, reg.Snapshot(), wall, cfg.ParallelismDefault)

	res.checked, res.mismatched, err = checkOutputs(m, tr.toCheck)
	if err != nil {
		return nil, err
	}
	if spanFile != "" {
		if err := tr.writeSpans(spanFile, res.events); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

// stageMetrics turns the complete post-warm-up events into per-stage
// p50 and share-of-latency, and the conservation error: the seven
// stages, each clamped at zero, against the independently measured
// latency. A boundary booked to the wrong event or out of order makes a
// stage negative, and the clamp turns that into a visible error.
func stageMetrics(res *tracedResult, warmEnd int64) {
	per := make([][]float64, len(stageNames))
	var sums [len(stageNames)]float64
	var total float64
	var consErr []float64
	for _, e := range res.events {
		if e.bounds[0] < warmEnd {
			continue
		}
		lat := float64(e.bounds[len(e.bounds)-1] - e.bounds[0])
		var sum float64
		for i := range stageNames {
			d := float64(e.bounds[i+1] - e.bounds[i])
			if d < 0 {
				d = 0
			}
			per[i] = append(per[i], d/1e6)
			sums[i] += d
			sum += d
		}
		total += lat
		consErr = append(consErr, ratio(math.Abs(sum-lat), lat))
	}
	for i, name := range stageNames {
		res.metrics["stage."+name+"_ms"] = quantile(sortedCopy(per[i]), 0.5)
		res.metrics["stage."+name+"_share"] = ratio(sums[i], total)
	}
	res.metrics["trace.conservation_err_p99"] = quantile(sortedCopy(consErr), 0.99)
}

// layerMetrics derives the wrapper-span (T) and registry (R) metrics.
func layerMetrics(res *tracedResult, tr *tracer, snap *telemetry.Snapshot, wall time.Duration, mp int) {
	m := res.metrics
	events := float64(res.scored)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	m["core.codec.marshal_us"] = ratio(us(tr.marshal.ns.Load()), float64(tr.marshal.calls.Load()))
	m["core.codec.unmarshal_us"] = ratio(us(tr.unmarshal.ns.Load()), float64(tr.unmarshal.calls.Load()))
	m["core.codec.us_per_event"] = ratio(us(tr.marshal.ns.Load()+tr.unmarshal.ns.Load()), events)
	m["core.codec.bytes_per_event"] = ratio(float64(tr.marshal.items.Load()), events)
	m["core.producer.send_us_per_event"] = ratio(us(tr.inputSend.ns.Load()), float64(tr.inputSend.items.Load()))

	fetchCalls := float64(tr.fetch.calls.Load())
	empty := float64(tr.emptyFetch.calls.Load())
	m["broker.produce_us_per_rec"] = ratio(us(tr.produce.ns.Load()), float64(tr.produce.items.Load()))
	m["broker.fetch_us_per_rec"] = ratio(us(tr.fetch.ns.Load()), float64(tr.fetch.items.Load()))
	m["broker.fetch_batch_mean"] = ratio(float64(tr.fetch.items.Load()), fetchCalls-empty)
	m["broker.empty_fetch_share"] = ratio(empty, fetchCalls)
	m["broker.calls_per_event"] = ratio(float64(tr.produce.calls.Load())+fetchCalls+float64(tr.otherCalls.calls.Load()), events)

	transformNs := tr.transform.ns.Load() + tr.batchTransform.ns.Load()
	m["sps.transform_us_per_event"] = ratio(us(transformNs), float64(tr.transform.items.Load()+tr.batchTransform.items.Load()))
	m["sps.transform_busy_share"] = ratio(float64(transformNs), float64(wall)*float64(mp))
	m["sps.dropped"] = float64(snap.Counters["sps.score.dropped"])

	size := snap.Histograms["sps.batch.size"]
	linger := float64(snap.Counters["sps.batch.linger_flush"])
	m["batching.batch_mean"] = ratio(float64(size.Sum), float64(size.Count))
	m["batching.linger_flush_share"] = ratio(linger, linger+float64(snap.Counters["sps.batch.size_flush"]))

	scoreCalls := float64(tr.score.calls.Load())
	m["serving.score_us_per_event"] = ratio(us(tr.score.ns.Load()), events)
	m["serving.calls_per_event"] = ratio(scoreCalls, events)
	m["serving.errors"] = float64(tr.scoreErrs.Load())

	hits, misses := float64(snap.Counters["tensor.arena.hits"]), float64(snap.Counters["tensor.arena.misses"])
	m["model.arena_miss_share"] = ratio(misses, hits+misses)
}

// checkOutputs recomputes each kept batch's predictions with the
// allocating reference Model.Forward on the inputs it carried and
// compares: same argmax per point, max abs difference ≤ 1e-4.
func checkOutputs(m *model.Model, batches []*core.DataBatch) (checked, mismatched int, err error) {
	for _, b := range batches {
		in, err := m.BatchInput(append([]float32(nil), b.Inputs...), b.Count)
		if err != nil {
			return checked, mismatched, fmt.Errorf("output check: %w", err)
		}
		want, err := m.Forward(in)
		if err != nil {
			return checked, mismatched, fmt.Errorf("output check: %w", err)
		}
		checked++
		if !samePredictions(want.Data(), b.Predictions, b.Count) {
			mismatched++
		}
	}
	return checked, mismatched, nil
}

func samePredictions(want, got []float32, points int) bool {
	if len(want) != len(got) || points <= 0 || len(want)%points != 0 {
		return false
	}
	width := len(want) / points
	for p := 0; p < points; p++ {
		wa, ga := 0, 0
		for i := 0; i < width; i++ {
			w, g := want[p*width+i], got[p*width+i]
			if math.Abs(float64(w-g)) > 1e-4 {
				return false
			}
			if w > want[p*width+wa] {
				wa = i
			}
			if g > got[p*width+ga] {
				ga = i
			}
		}
		if wa != ga {
			return false
		}
	}
	return true
}
