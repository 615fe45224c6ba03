package experiments

import (
	"fmt"
	"time"

	"crayfish/internal/core"
	"crayfish/internal/loadgen"
)

// servingTools5 is the Figure 5/6 tool set.
var servingTools5 = []core.ServingConfig{
	embeddedTool("dl4j"),
	embeddedTool("onnx"),
	embeddedTool("savedmodel"),
	externalTool("torchserve"),
	externalTool("tf-serving"),
}

// Figure5LatencyBatchSize reproduces Figure 5: end-to-end latency for
// increasing batch sizes in the closed-loop scenario (Flink, FFNN, ir=1,
// mp=1; batch sizes 32/128/512).
func Figure5LatencyBatchSize(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Figure 5",
		Title:  "End-to-end latency vs batch size (Flink, FFNN, closed loop, mp=1)",
		Header: []string{"server", "bsz=32", "bsz=128", "bsz=512"},
	}
	for _, serving := range servingTools5 {
		row := []string{serving.Tool}
		for _, bsz := range []int{32, 128, 512} {
			w := o.ffnnWorkload()
			w.BatchSize = bsz
			cfg := o.baseConfig("flink", serving, w, "ffnn", 1)
			// Closed loop: slow enough that latency is dominated
			// by inference (larger batches get a proportionally
			// lower rate, as one event carries more data).
			lat, err := o.closedLoop(cfg, 640/float64(bsz), o.scaled(3*time.Second))
			if err != nil {
				return nil, fmt.Errorf("figure5 %s/bsz=%d: %w", serving.Tool, bsz, err)
			}
			o.logf("figure5 %s bsz=%d: mean %v", serving.Tool, bsz, lat.Mean)
			row = append(row, fmtMs(lat.Mean))
		}
		r.AddRow(row...)
	}
	r.AddNote("paper shape: latency grows with bsz; TF-Serving comparable to (sometimes below) embedded options; DL4J slowest embedded")
	return r, nil
}

// scaleUp runs the vertical-scalability sweep for a tool set and model.
func (o Options) scaleUp(id, title, engine, modelName string, w core.Workload, tools []core.ServingConfig, d time.Duration) (*Report, error) {
	header := []string{"server"}
	for _, mp := range o.Parallelisms {
		header = append(header, fmt.Sprintf("mp=%d", mp))
	}
	r := &Report{ID: id, Title: title, Header: header}
	for _, serving := range tools {
		row := []string{serving.Tool}
		for _, mp := range o.Parallelisms {
			cfg := o.baseConfig(engine, serving, w, modelName, mp)
			tput, err := o.saturate(cfg, d)
			if err != nil {
				return nil, fmt.Errorf("%s %s/mp=%d: %w", id, serving.Tool, mp, err)
			}
			o.logf("%s %s mp=%d: %.1f events/s", id, serving.Tool, mp, tput)
			row = append(row, fmtRate(tput))
		}
		r.AddRow(row...)
	}
	return r, nil
}

// Figure6ScaleUpFFNN reproduces Figure 6: vertical scalability of the
// serving tools on Flink with the FFNN model (ir=30k, bsz=1).
func Figure6ScaleUpFFNN(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r, err := o.scaleUp("Figure 6",
		"Vertical scalability, Flink + FFNN (saturation, bsz=1)",
		"flink", "ffnn", o.ffnnWorkload(), servingTools5, o.scaled(3*time.Second))
	if err != nil {
		return nil, err
	}
	r.AddNote("paper shape: ONNX/SavedModel scale to mp=16, DL4J plateaus by 8 (shared native workspaces), externals keep scaling, TF-Serving overtakes DL4J")
	return r, nil
}

// Figure7ScaleUpResNet reproduces Figure 7: vertical scalability with the
// ResNet model (ir=256, bsz=1).
func Figure7ScaleUpResNet(opts Options) (*Report, error) {
	o := opts.withDefaults()
	tools := []core.ServingConfig{embeddedTool("onnx"), externalTool("torchserve"), externalTool("tf-serving")}
	r, err := o.scaleUp("Figure 7",
		"Vertical scalability, Flink + ResNet (saturation, bsz=1)",
		"flink", "resnet", o.resnetWorkload(), tools, o.scaled(4*time.Second))
	if err != nil {
		return nil, err
	}
	r.AddNote("paper shape: compute dominates; TF-Serving shows little gain from scaling, TorchServe overtakes it at high mp, ONNX keeps scaling")
	return r, nil
}

// Figure8BurstRecovery reproduces Figure 8: periodic bursts above the
// sustainable throughput and the time each serving tool needs to recover.
func Figure8BurstRecovery(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Figure 8",
		Title:  "Burst recovery (Flink, FFNN, bsz=1, mp=1; bursts at 125% of ST, 70% between)",
		Header: []string{"server", "sustainable (ev/s)", "recovery (avg)", "recovery (best)"},
	}
	// Scaled burst schedule: the paper uses bd=30s, tbb=120s.
	bd := o.scaled(1500 * time.Millisecond)
	tbb := 5 * bd
	total := 3 * tbb // three bursts, as plotted in the paper

	for _, serving := range []core.ServingConfig{embeddedTool("onnx"), externalTool("tf-serving")} {
		// First find the sustainable throughput for this tool. The
		// probe runs longer than usual: the burst schedule is built
		// on it, so its noise directly weakens the burst.
		cfg := o.baseConfig("flink", serving, o.ffnnWorkload(), "ffnn", 1)
		st, err := o.saturate(cfg, o.scaled(4*time.Second))
		if err != nil {
			return nil, fmt.Errorf("figure8 %s: ST probe: %w", serving.Tool, err)
		}
		w := o.ffnnWorkload()
		burst := loadgen.Phased(0,
			loadgen.Phase{Duration: bd, Rate: st * 1.25},
			loadgen.Phase{Duration: tbb - bd, Rate: st * 0.70},
		)
		w.Load = &burst
		w.Duration = total
		cfg = o.baseConfig("flink", serving, w, "ffnn", 1)
		cfg.KeepSamples = true
		runner := &core.Runner{DrainTimeout: bd}
		var recs []time.Duration
		for run := 0; run < o.Runs; run++ {
			cfg.Workload.Seed = int64(run + 1)
			res, err := runner.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("figure8 %s: %w", serving.Tool, err)
			}
			// Recovery of the middle bursts (warm, away from the
			// run's edges), giving several samples per run for the
			// paper's avg/best/variance framing.
			for burst := 1; burst <= 2; burst++ {
				burstStart := time.Duration(burst) * tbb
				burstEnd := burstStart + bd
				rec, err := core.RecoveryTime(res.Samples, res.RunStart, burstStart, burstEnd, bd/10, 2)
				if err != nil {
					o.logf("figure8 %s run %d burst %d: %v", serving.Tool, run, burst, err)
					continue
				}
				recs = append(recs, rec)
				o.logf("figure8 %s run %d burst %d: recovery %v", serving.Tool, run, burst, rec)
			}
		}
		avg, best := aggregateRecovery(recs)
		r.AddRow(serving.Tool, fmtRate(st), fmtDurOrDash(avg), fmtDurOrDash(best))
	}
	r.AddNote("paper shape: TF-Serving's best-case recovery beats ONNX's but varies more between bursts; ONNX is steadier")
	r.AddNote("bursts run at 125%% of the probed ST (the paper uses 110%%): this substrate's ST probe has ±15%% noise, so a 10%% overshoot would not reliably exceed capacity")
	return r, nil
}

func aggregateRecovery(recs []time.Duration) (avg, best time.Duration) {
	if len(recs) == 0 {
		return -1, -1
	}
	best = recs[0]
	var sum time.Duration
	for _, r := range recs {
		sum += r
		if r < best {
			best = r
		}
	}
	return sum / time.Duration(len(recs)), best
}

func fmtDurOrDash(d time.Duration) string {
	if d < 0 {
		return "did not stabilise"
	}
	return fmtMs(d)
}

// Figure9GPUAcceleration reproduces Figure 9: CPU vs GPU inference latency
// for ONNX and TF-Serving on the ResNet model (closed loop, bsz=8, mp=1).
func Figure9GPUAcceleration(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Figure 9",
		Title:  "GPU acceleration (Flink, ResNet, closed loop, bsz=8, mp=1)",
		Header: []string{"configuration", "mean latency", "vs cpu"},
	}
	type combo struct {
		serving core.ServingConfig
		device  string
	}
	combos := []combo{
		{embeddedTool("onnx"), "cpu"},
		{embeddedTool("onnx"), "gpu"},
		{externalTool("tf-serving"), "cpu"},
		{externalTool("tf-serving"), "gpu"},
	}
	base := map[string]time.Duration{}
	for _, c := range combos {
		w := o.resnetWorkload()
		w.BatchSize = 8
		serving := c.serving
		serving.Device = c.device
		cfg := o.baseConfig("flink", serving, w, "resnet", 1)
		// The paper emits one event every 5 seconds. The run is floored
		// at a few seconds so the inter-event gap stays well above the
		// ~50 ms batch-8 inference time — queueing would otherwise
		// drown the kernel-level differences.
		d := o.scaled(8 * time.Second)
		if d < 3*time.Second {
			d = 3 * time.Second
		}
		lat, err := o.closedLoop(cfg, 3, d)
		if err != nil {
			return nil, fmt.Errorf("figure9 %s-%s: %w", c.serving.Tool, c.device, err)
		}
		name := fmt.Sprintf("%s-%s", c.serving.Tool, c.device)
		o.logf("figure9 %s: mean %v", name, lat.Mean)
		delta := ""
		if c.device == "cpu" {
			base[c.serving.Tool] = lat.Mean
		} else if b, ok := base[c.serving.Tool]; ok && b > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(float64(lat.Mean)-float64(b))/float64(b))
		}
		r.AddRow(name, fmtMs(lat.Mean), delta)
	}
	r.AddNote("paper shape: both improve on GPU (onnx −16.4%%, tf-serving −24.1%%); tf-serving-gpu ≤ onnx-gpu and beats onnx-cpu")
	r.AddNote("the GPU device gains come from real fast kernels (Winograd + BN folding) plus a modelled PCIe transfer; see DESIGN.md §1")
	return r, nil
}

// Figure10SPSLatency reproduces Figure 10: end-to-end latency across the
// four stream processors for increasing batch sizes.
func Figure10SPSLatency(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Figure 10",
		Title:  "End-to-end latency across SPSs (FFNN, closed loop, mp=1)",
		Header: []string{"engine", "server", "bsz=32", "bsz=128", "bsz=512"},
	}
	for _, engine := range []string{"flink", "kafka-streams", "spark-ss", "ray"} {
		for _, serving := range []core.ServingConfig{embeddedTool("onnx"), externalTool("tf-serving")} {
			row := []string{engine, serving.Tool}
			for _, bsz := range []int{32, 128, 512} {
				w := o.ffnnWorkload()
				w.BatchSize = bsz
				cfg := o.baseConfig(engine, serving, w, "ffnn", 1)
				lat, err := o.closedLoop(cfg, 640/float64(bsz), o.scaled(3*time.Second))
				if err != nil {
					return nil, fmt.Errorf("figure10 %s/%s/bsz=%d: %w", engine, serving.Tool, bsz, err)
				}
				o.logf("figure10 %s/%s bsz=%d: mean %v", engine, serving.Tool, bsz, lat.Mean)
				row = append(row, fmtMs(lat.Mean))
			}
			r.AddRow(row...)
		}
	}
	r.AddNote("paper shape: Flink lowest at small bsz but Kafka Streams wins at 512 (no buffer splitting); Spark SS highest everywhere (micro-batch floor); Ray competitive")
	return r, nil
}

// Figure11SPSScaleUp reproduces Figure 11: vertical scalability across the
// four stream processors with embedded and external serving.
func Figure11SPSScaleUp(opts Options) (*Report, error) {
	o := opts.withDefaults()
	header := []string{"engine", "server"}
	for _, mp := range o.Parallelisms {
		header = append(header, fmt.Sprintf("mp=%d", mp))
	}
	r := &Report{
		ID:     "Figure 11",
		Title:  "Vertical scalability across SPSs (FFNN, saturation, bsz=1)",
		Header: header,
	}
	for _, engine := range []string{"flink", "kafka-streams", "spark-ss", "ray"} {
		for _, serving := range []core.ServingConfig{embeddedTool("onnx"), externalTool("tf-serving")} {
			row := []string{engine, serving.Tool}
			for _, mp := range o.Parallelisms {
				cfg := o.baseConfig(engine, serving, o.ffnnWorkload(), "ffnn", mp)
				tput, err := o.saturate(cfg, o.scaled(3*time.Second))
				if err != nil {
					return nil, fmt.Errorf("figure11 %s/%s/mp=%d: %w", engine, serving.Tool, mp, err)
				}
				o.logf("figure11 %s/%s mp=%d: %.1f events/s", engine, serving.Tool, mp, tput)
				row = append(row, fmtRate(tput))
			}
			r.AddRow(row...)
		}
	}
	r.AddNote("paper shape: Kafka Streams peaks highest (embedded); Spark SS high but flat in mp; Flink scales below KS; Ray lowest with Ray-Serve worst (single HTTP proxy)")
	return r, nil
}

// Figure12OperatorParallelism reproduces Figure 12/§6.1: chained
// flink[N-N-N] vs operator-level flink[32-N-32].
func Figure12OperatorParallelism(opts Options) (*Report, error) {
	o := opts.withDefaults()
	header := []string{"pipeline", "server"}
	for _, mp := range o.Parallelisms {
		header = append(header, fmt.Sprintf("N=%d", mp))
	}
	r := &Report{
		ID:     "Figure 12",
		Title:  fmt.Sprintf("Operator-level parallelism: flink[N-N-N] vs flink[%d-N-%d] (FFNN)", o.Fanout, o.Fanout),
		Header: header,
	}
	for _, serving := range []core.ServingConfig{embeddedTool("onnx"), externalTool("tf-serving")} {
		for _, operatorLevel := range []bool{false, true} {
			name := "flink[N-N-N]"
			if operatorLevel {
				name = fmt.Sprintf("flink[%d-N-%d]", o.Fanout, o.Fanout)
			}
			row := []string{name, serving.Tool}
			for _, mp := range o.Parallelisms {
				cfg := o.baseConfig("flink", serving, o.ffnnWorkload(), "ffnn", mp)
				if operatorLevel {
					cfg.SourceParallelism = o.Fanout
					cfg.SinkParallelism = o.Fanout
				}
				tput, err := o.saturate(cfg, o.scaled(3*time.Second))
				if err != nil {
					return nil, fmt.Errorf("figure12 %s/%s/N=%d: %w", name, serving.Tool, mp, err)
				}
				o.logf("figure12 %s/%s N=%d: %.1f events/s", name, serving.Tool, mp, tput)
				row = append(row, fmtRate(tput))
			}
			r.AddRow(row...)
		}
	}
	r.AddNote("paper shape: operator-level parallelism reaches ≈3.8× the chained pipeline's rate at low N — sources and sinks, not scoring, bottleneck the chained DAG")
	return r, nil
}

// Figure13KafkaOverhead reproduces Figure 13/§6.2: the Crayfish pipeline
// with the broker in the loop vs an equivalent self-contained pipeline.
func Figure13KafkaOverhead(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Figure 13",
		Title:  "Broker overhead: Crayfish (kafka) vs standalone Flink (no-kafka), ONNX + FFNN",
		Header: []string{"pipeline", "throughput (events/s)", "mean latency", "p99"},
	}
	// Throughput: saturation with operator-level parallelism, as §6.2.
	satCfg := o.baseConfig("flink", embeddedTool("onnx"), o.ffnnWorkload(), "ffnn", 1)
	satCfg.SourceParallelism = o.Fanout
	satCfg.SinkParallelism = o.Fanout
	viaTput, err := o.saturate(satCfg, o.scaled(3*time.Second))
	if err != nil {
		return nil, fmt.Errorf("figure13 kafka throughput: %w", err)
	}

	// Latency: closed loop via broker vs standalone.
	latCfg := o.baseConfig("flink", embeddedTool("onnx"), o.ffnnWorkload(), "ffnn", 1)
	viaLat, err := o.closedLoop(latCfg, 20, o.scaled(3*time.Second))
	if err != nil {
		return nil, fmt.Errorf("figure13 kafka latency: %w", err)
	}
	r.AddRow("kafka", fmtRate(viaTput), fmtMs(viaLat.Mean), fmtMs(viaLat.P99))

	// No Load: the throughput half saturates.
	standCfg := latCfg
	standCfg.Workload.Duration = o.scaled(3 * time.Second)
	standTput, err := core.RunStandalone(standCfg)
	if err != nil {
		return nil, fmt.Errorf("figure13 no-kafka throughput: %w", err)
	}
	standLatCfg := latCfg
	standLatCfg.Workload.Load = openLoop(20)
	standLatCfg.Workload.Duration = o.scaled(3 * time.Second)
	standLat, err := core.RunStandalone(standLatCfg)
	if err != nil {
		return nil, fmt.Errorf("figure13 no-kafka latency: %w", err)
	}
	r.AddRow("no-kafka", fmtRate(standTput.Metrics.Throughput), fmtMs(standLat.Metrics.Latency.Mean), fmtMs(standLat.Metrics.Latency.P99))
	r.AddNote("paper shape: throughput overhead of the broker is small (≈2.4%%), latency overhead is large (standalone up to 59%% lower)")
	return r, nil
}
