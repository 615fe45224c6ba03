package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"crayfish/internal/batching"
	"crayfish/internal/broker"
	"crayfish/internal/core"
	"crayfish/internal/model"
	"crayfish/internal/netsim"
	"crayfish/internal/sps/flink"
	"crayfish/internal/telemetry"
)

// AblationProducerBatching quantifies the §3.5 "producer-level batching"
// design decision: shipping bsz data points as one CrayfishDataBatch event
// versus one event per data point.
func AblationProducerBatching(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Ablation A1",
		Title:  "Producer-level batching: one event per batch vs one event per point (Flink + ONNX)",
		Header: []string{"arrangement", "points/s"},
	}
	d := o.scaled(2 * time.Second)

	// Batched: 32 points per event.
	w := o.ffnnWorkload()
	w.BatchSize = 32
	cfg := o.baseConfig("flink", embeddedTool("onnx"), w, "ffnn", 1)
	cfg.Workload.Load = openLoop(2_000)
	cfg.Workload.Duration = d
	runner := &core.Runner{DrainTimeout: time.Millisecond}
	res, err := runner.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("ablation batching (batched): %w", err)
	}
	r.AddRow("1 event = 32 points", fmtRate(res.Metrics.Throughput*32))

	// Unbatched: one point per event.
	w = o.ffnnWorkload()
	w.BatchSize = 1
	cfg = o.baseConfig("flink", embeddedTool("onnx"), w, "ffnn", 1)
	cfg.Workload.Load = openLoop(openLoopRate("ffnn"))
	cfg.Workload.Duration = d
	res, err = runner.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("ablation batching (per-point): %w", err)
	}
	r.AddRow("1 event = 1 point", fmtRate(res.Metrics.Throughput))
	r.AddNote("batching data points into one event amortises per-event framework overhead, justifying the CrayfishDataBatch unit")
	return r, nil
}

// AblationSerialization compares the paper's JSON pipeline codec against
// the compact binary codec.
func AblationSerialization(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Ablation A2",
		Title:  "Pipeline serialisation: JSON (paper default) vs binary codec (Flink + ONNX, FFNN)",
		Header: []string{"codec", "throughput (events/s)"},
	}
	for _, codec := range []core.BatchCodec{core.JSONCodec{}, core.BinaryCodec{}} {
		cfg := o.baseConfig("flink", embeddedTool("onnx"), o.ffnnWorkload(), "ffnn", 1)
		cfg.Workload.Load = openLoop(openLoopRate("ffnn"))
		cfg.Workload.Duration = o.scaled(2 * time.Second)
		runner := &core.Runner{Codec: codec, DrainTimeout: time.Millisecond}
		res, err := runner.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation serialisation (%s): %w", codec.Name(), err)
		}
		o.logf("ablation serialisation %s: %.1f events/s", codec.Name(), res.Metrics.Throughput)
		r.AddRow(codec.Name(), fmtRate(res.Metrics.Throughput))
	}
	r.AddNote("JSON costs real throughput even through the schema-specialised codec — binary ≈ 1.55× here, from ≈ 1.8× before the operator stopped re-formatting inputs it did not change: the 784 floats it still parses, binary copies; the paper accepts it for simplicity and flexibility (§3.1)")
	return r, nil
}

// AblationTransport compares the in-process broker with the TCP broker
// daemon, isolating real wire serialisation from the modelled LAN.
func AblationTransport(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Ablation A3",
		Title:  "Broker transport: in-process vs TCP daemon (Flink + ONNX, FFNN, no modelled LAN)",
		Header: []string{"transport", "throughput (events/s)", "mean latency"},
	}
	run := func(transport broker.Transport, label string) error {
		cfg := o.baseConfig("flink", embeddedTool("onnx"), o.ffnnWorkload(), "ffnn", 1)
		cfg.Network.Latency = 0
		cfg.Network.BandwidthBytesPerSec = 0
		cfg.Workload.Load = openLoop(2_000)
		cfg.Workload.Duration = o.scaled(2 * time.Second)
		runner := &core.Runner{Transport: transport, DrainTimeout: 100 * time.Millisecond}
		res, err := runner.Run(cfg)
		if err != nil {
			return fmt.Errorf("ablation transport (%s): %w", label, err)
		}
		o.logf("ablation transport %s: %.1f events/s, %v", label, res.Metrics.Throughput, res.Metrics.Latency.Mean)
		r.AddRow(label, fmtRate(res.Metrics.Throughput), fmtMs(res.Metrics.Latency.Mean))
		return nil
	}
	if err := run(nil, "in-process"); err != nil {
		return nil, err
	}
	b := broker.New(broker.DefaultConfig())
	srv, err := broker.Serve(b, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer func() { _ = srv.Close() }()
	rc, err := broker.Dial(srv.Addr())
	if err != nil {
		return nil, err
	}
	defer func() { _ = rc.Close() }()
	if err := run(rc, "tcp"); err != nil {
		return nil, err
	}
	r.AddNote("the TCP daemon pays real frame serialisation and socket hops; experiments use the in-process broker plus the modelled LAN profile")
	return r, nil
}

// timeRuns times iters calls of run after one untimed call, which sizes
// buffers and builds kernel caches.
func timeRuns(iters int, run func() error) (time.Duration, error) {
	if err := run(); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := run(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(iters), nil
}

// timePlan measures a compiled plan's steady-state cost per single-point
// inference. The plan may scratch its input, so every call gets a fresh
// copy.
func timePlan(p *model.Plan, inputs []float32, iters int) (time.Duration, error) {
	in := make([]float32, len(inputs))
	out := make([]float32, p.OutputLen())
	return timeRuns(iters, func() error {
		copy(in, inputs)
		return p.Forward(in, 1, out)
	})
}

// AblationFusedExecution isolates graph compilation: the same model
// scored through a compiled plan (resolved kernels, recycled arena
// buffers) vs the op-by-op allocating reference pass, without any
// pipeline around it.
func AblationFusedExecution(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Ablation A4",
		Title:  "Execution plan: fused (compiled plan) vs unfused (op-by-op allocating reference pass), FFNN, direct scoring",
		Header: []string{"plan", "ns/inference"},
	}
	m := model.NewFFNN(1)
	rng := rand.New(rand.NewSource(1))
	inputs := make([]float32, m.InputLen())
	for i := range inputs {
		inputs[i] = rng.Float32()
	}
	iters := int(2000 * o.Scale)
	if iters < 50 {
		iters = 50
	}
	plan, err := m.Compile(model.ExecHints{})
	if err != nil {
		return nil, err
	}
	defer plan.Close()
	fused, err := timePlan(plan, inputs, iters)
	if err != nil {
		return nil, err
	}
	// The baseline arm: the allocating interpreter, which no serving
	// path runs.
	unfused, err := timeRuns(iters, func() error {
		x, err := m.BatchInput(append([]float32(nil), inputs...), 1)
		if err != nil {
			return err
		}
		_, err = m.ForwardWith(x, model.ExecHints{})
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, row := range []struct {
		name string
		per  time.Duration
	}{{"fused dense plan", fused}, {"unfused op-by-op", unfused}} {
		o.logf("ablation fusion %s: %v/inference", row.name, row.per)
		r.AddRow(row.name, fmt.Sprint(row.per.Nanoseconds()))
	}
	r.AddNote("fusion + buffer reuse is why the ONNX analogue leads Table 4, and why TF-Serving beats TorchServe externally")
	return r, nil
}

// AblationAsyncIO measures the §7 what-if the paper declines to run: the
// same external-serving pipeline with Flink's blocking calls (the paper's
// §4.3 setting) versus its asynchronous I/O operator.
func AblationAsyncIO(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Ablation A6",
		Title:  "Flink external calls: blocking (paper setting) vs async I/O operator (FFNN + TF-Serving, mp=1)",
		Header: []string{"scoring calls", "throughput (events/s)"},
	}
	for _, async := range []bool{false, true} {
		engine := flink.New()
		engine.AsyncIO = async
		cfg := o.baseConfig("flink", externalTool("tf-serving"), o.ffnnWorkload(), "ffnn", 1)
		tput, err := o.saturateWithEngine(cfg, engine, o.scaled(2*time.Second))
		if err != nil {
			return nil, fmt.Errorf("ablation async (async=%v): %w", async, err)
		}
		name := "blocking"
		if async {
			name = "async I/O (capacity 16)"
		}
		o.logf("ablation async %s: %.1f events/s", name, tput)
		r.AddRow(name, fmtRate(tput))
	}
	r.AddNote("async I/O overlaps the per-call network wait, recovering most of the embedded-vs-external gap — the close-integration direction §7 advocates")
	return r, nil
}

// AblationFastKernels isolates the GPU device's kernel-level gains:
// direct convolution vs Winograd vs Winograd + folded batch norms on the
// benchmark ResNet.
func AblationFastKernels(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Ablation A5",
		Title:  "Accelerator kernels: direct conv vs Winograd vs Winograd+BN-folding (benchmark ResNet, bsz=1)",
		Header: []string{"kernel path", "ms/inference"},
	}
	m := model.NewResNet(model.BenchResNetConfig(1))
	folded := model.FoldBatchNorm(m)
	rng := rand.New(rand.NewSource(1))
	inputs := make([]float32, m.InputLen())
	for i := range inputs {
		inputs[i] = rng.Float32()
	}
	iters := int(12 * o.Scale)
	if iters < 2 {
		iters = 2
	}
	// Every arm runs a compiled plan, the executor serving runs, so the
	// rows differ in kernels only.
	measure := func(p *model.Plan, err error) (time.Duration, error) {
		if err != nil {
			return 0, err
		}
		defer p.Close()
		return timePlan(p, inputs, iters)
	}
	cases := []struct {
		name  string
		m     *model.Model
		hints model.ExecHints
	}{
		{"direct conv (cpu)", m, model.ExecHints{}},
		{"winograd (gpu kernels)", m, model.ExecHints{FastConv: true}},
		{"winograd + bn folding (tf-serving gpu)", folded, model.ExecHints{FastConv: true}},
	}
	for _, c := range cases {
		per, err := measure(c.m.Compile(c.hints))
		if err != nil {
			return nil, fmt.Errorf("ablation kernels (%s): %w", c.name, err)
		}
		o.logf("ablation kernels %s: %v", c.name, per)
		r.AddRow(c.name, fmtMs(per))
	}
	// The float32-vs-int8 arm: calibrate the folded model and run the
	// quantized plan over the same inputs (docs/QUANTIZATION.md).
	cal, err := folded.Calibrate(inputs, 1)
	if err != nil {
		return nil, fmt.Errorf("ablation kernels (int8 calibration): %w", err)
	}
	qper, err := measure(folded.QuantizePlan(model.ExecHints{}, cal))
	if err != nil {
		return nil, fmt.Errorf("ablation kernels (int8 plan): %w", err)
	}
	o.logf("ablation kernels int8 quantized plan: %v", qper)
	r.AddRow("int8 quantized plan (tensorrt-style)", fmtMs(qper))
	r.AddNote("these real kernel-level gains are the source of Figure 9's GPU improvements (plus the modelled PCIe transfer)")
	r.AddNote("every arm runs a compiled plan; the int8 arm is the packed-GEMM quantized plan on the BN-folded model, its accuracy cost pinned by the drift contract (docs/QUANTIZATION.md)")
	return r, nil
}

// AblationNetworkRealism quantifies the modelled LAN's contribution: the
// same pipelines with the inter-machine links at loopback speed versus
// the paper-fitted LAN profile, so readers can see exactly what the
// modelled network adds to every other number in EXPERIMENTS.md.
func AblationNetworkRealism(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Ablation A7",
		Title:  "Network realism: loopback vs modelled LAN (Flink, FFNN, mp=1)",
		Header: []string{"serving", "network", "throughput (events/s)", "mean latency"},
	}
	for _, serving := range []core.ServingConfig{embeddedTool("onnx"), externalTool("tf-serving")} {
		for _, lan := range []bool{false, true} {
			cfg := o.baseConfig("flink", serving, o.ffnnWorkload(), "ffnn", 1)
			name := "loopback"
			if !lan {
				cfg.Network = netsim.Loopback
			} else {
				name = "LAN (paper-fitted)"
			}
			cfg.Workload.Load = openLoop(100)
			cfg.Workload.Duration = o.scaled(2 * time.Second)
			runner := &core.Runner{}
			latRes, err := runner.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("ablation network (%s/%s): %w", serving.Tool, name, err)
			}
			tput, err := o.saturate(cfg, o.scaled(2*time.Second))
			if err != nil {
				return nil, fmt.Errorf("ablation network (%s/%s): %w", serving.Tool, name, err)
			}
			o.logf("ablation network %s/%s: %.1f events/s, %v", serving.Tool, name, tput, latRes.Metrics.Latency.Mean)
			r.AddRow(serving.Tool, name, fmtRate(tput), fmtMs(latRes.Metrics.Latency.Mean))
		}
	}
	r.AddNote("the LAN profile is fitted to the paper's measured pings (netsim.LAN); it is what makes scaling curves and external-call costs behave like the 9-VM deployment")
	return r, nil
}

// AblationDynamicBatching sweeps the scoring operator's micro-batch
// dimension (§4's bsz lever applied inside the operator): fixed batch
// targets against the SLO-driven AIMD controller, on the external
// serving path where every scorer invocation pays a wire round trip —
// the cost coalescing amortises.
func AblationDynamicBatching(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Ablation A8",
		Title:  "Dynamic micro-batching: fixed targets vs SLO-driven AIMD (Flink + TF-Serving, FFNN)",
		Header: []string{"batching", "throughput (events/s)", "mean latency", "batches", "final target"},
	}
	d := o.scaled(2 * time.Second)
	run := func(label string, policy *batching.Policy) error {
		reg := telemetry.New()
		cfg := o.baseConfig("flink", externalTool("tf-serving"), o.ffnnWorkload(), "ffnn", 4)
		cfg.Batching = policy
		cfg.Telemetry = reg
		cfg.Workload.Load = openLoop(2_000)
		cfg.Workload.Duration = d
		runner := &core.Runner{DrainTimeout: time.Millisecond}
		res, err := runner.Run(cfg)
		if err != nil {
			return fmt.Errorf("ablation dynbatch (%s): %w", label, err)
		}
		batches, target := "—", "—"
		if policy != nil && res.Telemetry != nil {
			batches = fmt.Sprintf("%d", res.Telemetry.Histograms["sps.batch.size"].Count)
			target = fmt.Sprintf("%d", res.Telemetry.Gauges["sps.batch.target"])
		}
		o.logf("ablation dynbatch %s: %.1f events/s, %v mean", label, res.Metrics.Throughput, res.Metrics.Latency.Mean)
		r.AddRow(label, fmtRate(res.Metrics.Throughput), fmtMs(res.Metrics.Latency.Mean), batches, target)
		return nil
	}
	if err := run("off", nil); err != nil {
		return nil, err
	}
	for _, bsz := range []int{1, 4, 16, 64} {
		p := &batching.Policy{MaxBatch: bsz, MinBatch: bsz}
		if err := run(fmt.Sprintf("fixed bsz=%d", bsz), p); err != nil {
			return nil, err
		}
	}
	adaptive := &batching.Policy{MaxBatch: 64, SLO: 50 * time.Millisecond, Window: 32}
	if err := run("adaptive (AIMD, SLO 50ms)", adaptive); err != nil {
		return nil, err
	}
	r.AddNote("larger fixed targets trade queueing latency for fewer wire round trips; the AIMD controller finds the largest target whose p95 operator latency holds the SLO")
	return r, nil
}

// AblationAttention isolates the fused transformer kernels: the same
// transformer scored through plans compiled with the unfused reference
// kernels (materialised S×S scores, multi-pass layer norm, erf GELU),
// the fused flash-style kernels (tiled attention with online softmax,
// one-pass residual + layer norm), and the fused kernels with the GPU
// profile's head-parallel fan-out.
func AblationAttention(opts Options) (*Report, error) {
	o := opts.withDefaults()
	r := &Report{
		ID:     "Ablation A9",
		Title:  "Fused transformer kernels: unfused reference vs flash-style fused vs fused + head-parallel (transformer, bsz=1)",
		Header: []string{"kernel path", "ns/inference"},
	}
	m := model.NewTransformer(model.DefaultTransformerConfig(1))
	rng := rand.New(rand.NewSource(1))
	inputs := make([]float32, m.InputLen())
	for i := range inputs {
		inputs[i] = rng.Float32()
	}
	iters := int(400 * o.Scale)
	if iters < 20 {
		iters = 20
	}
	cases := []struct {
		name  string
		hints model.ExecHints
	}{
		{"unfused reference (cpu)", model.ExecHints{}},
		{"fused flash-attention (gpu kernels)", model.ExecHints{FastConv: true}},
		{"fused + head-parallel (gpu, 4 workers)", model.ExecHints{FastConv: true, Workers: 4}},
	}
	for _, c := range cases {
		plan, err := m.Compile(c.hints)
		if err != nil {
			return nil, fmt.Errorf("ablation attention (%s): %w", c.name, err)
		}
		per, err := timePlan(plan, inputs, iters)
		plan.Close()
		if err != nil {
			return nil, fmt.Errorf("ablation attention (%s): %w", c.name, err)
		}
		o.logf("ablation attention %s: %v/inference", c.name, per)
		r.AddRow(c.name, fmt.Sprint(per.Nanoseconds()))
	}
	r.AddNote("the fused kernel never materialises the S×S score matrix (one online-softmax stream per query row) and folds residual adds into layer norms; scripts/bench.sh pins the kernel-level contrast as attention_fused_speedup (contract >= 1.5x)")
	return r, nil
}
