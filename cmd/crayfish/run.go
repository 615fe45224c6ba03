package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"crayfish"
)

func run() {
	var (
		engine   = flag.String("engine", "flink", "stream processor: "+strings.Join(crayfish.Engines(), ", "))
		mode     = flag.String("mode", "embedded", "serving mode: embedded or external")
		tool     = flag.String("tool", "onnx", "serving tool: onnx|savedmodel|dl4j (embedded), tf-serving|torchserve|ray-serve (external)")
		modelN   = flag.String("model", "ffnn", "pre-trained model: ffnn, resnet, resnet50, transformer")
		device   = flag.String("device", "cpu", "inference device: cpu or gpu")
		rate     = flag.Float64("rate", 1000, "input rate in events/s (0 = saturate)")
		bsz      = flag.Int("bsz", 1, "data points per event (bsz)")
		mp       = flag.Int("mp", 1, "scoring parallelism (mp)")
		srcPar   = flag.Int("source-parallelism", 0, "operator-level source parallelism (0 = mp)")
		sinkPar  = flag.Int("sink-parallelism", 0, "operator-level sink parallelism (0 = mp)")
		parts    = flag.Int("partitions", 32, "topic partitions")
		duration = flag.Duration("duration", 5*time.Second, "experiment duration")
		lan      = flag.Bool("lan", true, "model the paper's LAN between components")
		brokerAt = flag.String("broker", "", "address of a running brokerd (default: private in-process broker)")
		servAt   = flag.String("serving-addr", "", "address of a running modelserver (default: launch in-process)")
		noKafka  = flag.Bool("standalone", false, "run the broker-less standalone pipeline (Figure 13 baseline)")
		seed     = flag.Int64("seed", 1, "workload seed")
		dataset  = flag.String("dataset", "", "path to a Crayfish dataset file (default: synthetic generator)")
		csvOut   = flag.String("samples-csv", "", "write per-batch samples to this CSV file")
		telEvery = flag.Duration("telemetry-interval", 0, "print live per-stage telemetry snapshots at this interval (0 = off); see docs/OBSERVABILITY.md")
		batchMax = flag.Int("batch-max", 0, "scoring-operator micro-batching: max records per scorer call (0 = off); see docs/PERFORMANCE.md")
		batchSLO = flag.Duration("batch-slo", 0, "p95 operator-latency SLO for AIMD batch sizing (0 = fixed target at batch-max); needs -batch-max")
	)
	flag.Parse()

	shape := map[string][]int{
		"ffnn":        {28, 28},
		"resnet":      {3, 64, 64},
		"resnet50":    {3, 224, 224},
		"transformer": {32, 64},
	}[*modelN]
	if shape == nil {
		fatalf("unknown model %q", *modelN)
	}
	cfg := crayfish.Config{
		Workload: crayfish.Workload{
			InputShape:  shape,
			BatchSize:   *bsz,
			Duration:    *duration,
			Seed:        *seed,
			DatasetPath: *dataset,
		},
		KeepSamples: *csvOut != "",
		Engine:      *engine,
		Serving: crayfish.ServingConfig{
			Mode:   crayfish.Embedded,
			Tool:   *tool,
			Device: *device,
			Addr:   *servAt,
		},
		Model:              crayfish.ModelSpec{Name: *modelN, Seed: 1},
		ParallelismDefault: *mp,
		SourceParallelism:  *srcPar,
		SinkParallelism:    *sinkPar,
		Partitions:         *parts,
	}
	if *rate > 0 {
		cfg.Workload.Load = &crayfish.LoadPolicy{Process: crayfish.LoadConstant, Rate: *rate}
	}
	if *mode == "external" {
		cfg.Serving.Mode = crayfish.External
	} else if *mode != "embedded" {
		fatalf("unknown mode %q", *mode)
	}
	if *lan {
		cfg.Network = crayfish.LAN
	}
	if *batchMax > 0 {
		cfg.Batching = &crayfish.BatchingPolicy{MaxBatch: *batchMax, SLO: *batchSLO}
	} else if *batchSLO > 0 {
		fatalf("-batch-slo needs -batch-max")
	}
	if *telEvery > 0 {
		cfg.Telemetry = crayfish.NewTelemetry()
		stop := crayfish.DumpTelemetry(os.Stdout, cfg.Telemetry, *telEvery)
		defer stop()
	}

	var res *crayfish.Result
	var err error
	switch {
	case *noKafka:
		res, err = crayfish.RunStandalone(cfg)
	case *brokerAt != "":
		client, derr := crayfish.DialBroker(*brokerAt)
		if derr != nil {
			fatalf("dial broker: %v", derr)
		}
		defer func() {
			if cerr := client.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "crayfish: close broker client: %v\n", cerr)
			}
		}()
		runner := &crayfish.Runner{Transport: client}
		res, err = runner.Run(cfg)
	default:
		res, err = crayfish.Run(cfg)
	}
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("engine=%s serving=%s/%s model=%s device=%s bsz=%d mp=%d\n",
		*engine, cfg.Serving.Mode, *tool, *modelN, *device, *bsz, *mp)
	fmt.Print(crayfish.FormatMetrics(res.Metrics))
	if res.Duplicates > 0 {
		fmt.Printf("duplicates: %d\n", res.Duplicates)
	}
	if res.Telemetry != nil {
		fmt.Println("--- final telemetry ---")
		fmt.Print(res.Telemetry.Format())
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatalf("samples csv: %v", err)
		}
		if err := crayfish.WriteSamplesCSV(f, res.Samples); err != nil {
			f.Close()
			fatalf("samples csv: %v", err)
		}
		f.Close()
		fmt.Printf("samples:    %d rows written to %s\n", len(res.Samples), *csvOut)
	}
	if res.EngineErr != nil {
		fmt.Printf("engine error: %v\n", res.EngineErr)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crayfish: "+format+"\n", args...)
	os.Exit(2)
}
