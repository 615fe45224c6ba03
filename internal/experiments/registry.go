package experiments

import (
	"fmt"
	"sort"
)

// Definition pairs an experiment ID with its runner.
type Definition struct {
	ID   string
	Name string
	Run  func(Options) (*Report, error)
}

// All returns every experiment in paper order.
func All() []Definition {
	return []Definition{
		{"table2", "Model characteristics and stored sizes", func(Options) (*Report, error) { return table2ModelSizes() }},
		{"table4", "Serving-tool throughput on Flink", table4ServingThroughput},
		{"figure5", "Latency vs batch size on Flink", figure5LatencyBatchSize},
		{"figure6", "Scale-up, Flink + FFNN", figure6ScaleUpFFNN},
		{"figure7", "Scale-up, Flink + ResNet", figure7ScaleUpResNet},
		{"figure8", "Burst recovery", figure8BurstRecovery},
		{"figure9", "GPU acceleration", figure9GPUAcceleration},
		{"table5", "Stream-processor throughput", table5SPSThroughput},
		{"figure10", "Latency across SPSs", figure10SPSLatency},
		{"figure11", "Scale-up across SPSs", figure11SPSScaleUp},
		{"figure12", "Operator-level parallelism", figure12OperatorParallelism},
		{"figure13", "Kafka overhead", figure13KafkaOverhead},
		{"ablation-batching", "Producer-level batching", ablationProducerBatching},
		{"ablation-serialization", "JSON vs binary pipeline codec", ablationSerialization},
		{"ablation-transport", "In-process vs TCP broker", ablationTransport},
		{"ablation-fusion", "Fused vs unfused execution", ablationFusedExecution},
		{"ablation-asyncio", "Blocking vs async I/O external calls", ablationAsyncIO},
		{"ablation-kernels", "Accelerator kernel paths", ablationFastKernels},
		{"ablation-attention", "Fused vs unfused transformer kernels", ablationAttention},
		{"ablation-network", "Loopback vs modelled LAN", ablationNetworkRealism},
		{"ablation-dynbatch", "Dynamic micro-batching in the scoring operator", ablationDynamicBatching},
		{"recovery", "Fault injection and recovery", recoveryFaultInjection},
		{"broker-failover", "Replicated-broker leader failover", brokerFailover},
		{"scenarios", "MLPerf-style scenario suite and server capacity sweep", scenarioSuite},
	}
}

// ByID returns one experiment definition.
func ByID(id string) (Definition, error) {
	for _, d := range All() {
		if d.ID == id {
			return d, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, d := range All() {
		ids = append(ids, d.ID)
	}
	sort.Strings(ids)
	return Definition{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, ids)
}
