package crayfish_test

import (
	"os"
	"strconv"
	"testing"

	"crayfish"
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

// benchOptions is the shared experiment profile for the bench harness.
func benchOptions() crayfish.ExperimentOptions {
	return crayfish.ExperimentOptions{
		Scale:        benchScale(),
		Runs:         1,
		Parallelisms: []int{1, 2, 4, 8, 16},
	}
}

// runExperiment executes one paper experiment per benchmark iteration and
// logs the regenerated table/figure.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	def, err := crayfish.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		report, err := def.Run(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", report.String())
		}
	}
}

// BenchmarkTable2ModelSizes regenerates Table 2 (model characteristics and
// stored sizes per format).
func BenchmarkTable2ModelSizes(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable4ServingThroughput regenerates Table 4 (serving-tool
// throughput on Flink; FFNN and ResNet, bsz=1, mp=1).
func BenchmarkTable4ServingThroughput(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFigure5LatencyBatchSize regenerates Figure 5 (end-to-end
// latency vs batch size, closed loop).
func BenchmarkFigure5LatencyBatchSize(b *testing.B) { runExperiment(b, "figure5") }

// BenchmarkFigure6ScaleUpFFNN regenerates Figure 6 (vertical scalability,
// Flink + FFNN).
func BenchmarkFigure6ScaleUpFFNN(b *testing.B) { runExperiment(b, "figure6") }

// BenchmarkFigure7ScaleUpResNet regenerates Figure 7 (vertical
// scalability, Flink + ResNet).
func BenchmarkFigure7ScaleUpResNet(b *testing.B) { runExperiment(b, "figure7") }

// BenchmarkFigure8BurstRecovery regenerates Figure 8 (recovery from
// periodic bursts above the sustainable throughput).
func BenchmarkFigure8BurstRecovery(b *testing.B) { runExperiment(b, "figure8") }

// BenchmarkFigure9GPUAcceleration regenerates Figure 9 (CPU vs GPU
// inference latency, ResNet, bsz=8).
func BenchmarkFigure9GPUAcceleration(b *testing.B) { runExperiment(b, "figure9") }

// BenchmarkTable5SPSThroughput regenerates Table 5 (throughput across the
// four stream processors).
func BenchmarkTable5SPSThroughput(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkFigure10SPSLatency regenerates Figure 10 (latency across the
// four stream processors for growing batch sizes).
func BenchmarkFigure10SPSLatency(b *testing.B) { runExperiment(b, "figure10") }

// BenchmarkFigure11SPSScaleUp regenerates Figure 11 (vertical scalability
// across the four stream processors).
func BenchmarkFigure11SPSScaleUp(b *testing.B) { runExperiment(b, "figure11") }

// BenchmarkFigure12OperatorParallelism regenerates Figure 12/§6.1
// (flink[N-N-N] vs flink[32-N-32]).
func BenchmarkFigure12OperatorParallelism(b *testing.B) { runExperiment(b, "figure12") }

// BenchmarkFigure13KafkaOverhead regenerates Figure 13/§6.2 (Crayfish with
// the broker vs a standalone pipeline).
func BenchmarkFigure13KafkaOverhead(b *testing.B) { runExperiment(b, "figure13") }

// BenchmarkAblationProducerBatching validates the §3.5 producer-level
// batching design decision.
func BenchmarkAblationProducerBatching(b *testing.B) { runExperiment(b, "ablation-batching") }

// BenchmarkAblationSerialization compares the JSON pipeline codec against
// the compact binary codec.
func BenchmarkAblationSerialization(b *testing.B) { runExperiment(b, "ablation-serialization") }

// BenchmarkAblationTransport compares the in-process broker with the TCP
// broker daemon.
func BenchmarkAblationTransport(b *testing.B) { runExperiment(b, "ablation-transport") }

// BenchmarkAblationFusedExecution isolates the fused-vs-unfused execution
// plan difference behind Table 4's embedded ordering.
func BenchmarkAblationFusedExecution(b *testing.B) { runExperiment(b, "ablation-fusion") }

// BenchmarkAblationFastKernels isolates the accelerator kernel paths
// behind Figure 9's GPU gains.
func BenchmarkAblationFastKernels(b *testing.B) { runExperiment(b, "ablation-kernels") }

// BenchmarkAblationNetworkRealism quantifies the modelled LAN profile's
// contribution relative to loopback links.
func BenchmarkAblationNetworkRealism(b *testing.B) { runExperiment(b, "ablation-network") }

// BenchmarkAblationAsyncIO measures the §7 what-if: Flink's blocking
// external calls versus its async I/O operator.
func BenchmarkAblationAsyncIO(b *testing.B) { runExperiment(b, "ablation-asyncio") }

// BenchmarkAblationDynamicBatching sweeps the scoring operator's
// micro-batch dimension: fixed targets vs the SLO-driven AIMD controller.
func BenchmarkAblationDynamicBatching(b *testing.B) { runExperiment(b, "ablation-dynbatch") }

// BenchmarkScenarioSuite runs the four MLPerf-style scenarios across
// engine × serving tool plus the offered-load sweep (docs/SCENARIOS.md).
func BenchmarkScenarioSuite(b *testing.B) { runExperiment(b, "scenarios") }
