#!/bin/sh
# Repository health check — run before every PR (see README "Contributing
# checks"): formatting, build, vet, race-enabled tests, quick benches.
set -e
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go build ./...
go vet ./...
# The benchmark harness is a module of its own (bench/go.mod), outside
# ./..., and names product symbols: vet and test it here, so deleting or
# renaming one of them fails this gate and not the benchmark driver.
go vet -C bench ./...
go test -C bench ./...
go run ./cmd/crayfishlint ./...
# Fault-injection conformance across all four engines (docs/FAULTS.md):
# breaker and retry behaviour is concurrency-sensitive, so this suite
# runs race-enabled and by name, before (and again within) the full
# test sweep — a fast, attributable failure when the chaos layer breaks.
go test -race -run TestFaultConformance -count=1 ./internal/sps/...
# Micro-batching conformance (docs/PERFORMANCE.md "Dynamic batching"):
# coalesced output must stay byte-identical to the unbatched path and
# partial-batch faults must drop only their own records. The batcher is
# all cross-goroutine coalescing, so this too runs race-enabled and by
# name across every engine — and with it the batcher's own quorum cut
# (a batch ships once every registered submitter waits on it), driven on
# the virtual clock.
go test -race -count=1 \
	-run 'TestBatchingConformance|TestAsyncIOBatchingConformance|TestQuorumOneSubmitterNeverWaitsOnTheClock|TestQuorumShipsWhenEveryTailHasJoined|TestQuorumSkipsSubmitterParkedOnFlushedBatch|TestUnregisteredDoCutsOnlyBySizeOrLinger|TestDeregisterCompletesQuorum|TestConcurrentStress' \
	./internal/sps/... ./internal/batching/
# Zero-allocation regression suite (docs/PERFORMANCE.md): the Into
# kernels, the buffer arena, and compiled plans must stay allocation-free
# in steady state. The GEMM, blocked convolution and fused attention are
# one kernel each, run here on a pool, on a nil pool and at uneven row
# splits; the arena's four kinds of buffer share one size-classed free
# list. Run race-enabled and by name for an attributable failure; under
# -race the exact-zero assertions relax but the same paths still execute
# race-checked.
go test -race -count=1 \
	-run 'TestIntoKernelsMatchAndDontAllocate|TestWinogradApplyInto|TestMatMulParallelInto|TestMatMulParallelMatchesSequentialProperty|TestParallelMatMulEvenSplit|TestConv2DPoolIntoMatchesSequential|TestWorkersPlanMatchesSequential|TestArena|TestPlanForwardAllocs|TestPlanConcurrent|TestQuantKernelsMatchOracleAndDontAllocate|TestQuantArena|TestQPlanForwardAllocs|TestQPlanConcurrent|TestAttentionKernelsMatchAndDontAllocate|TestAttentionFusedMatchesReference|TestLayerNormGELUKernels|TestTransformerFusedVsReference|TestQuantRejectsTransformerKinds' \
	./internal/tensor/ ./internal/model/
# The GEMM kernel against its naive oracle (docs/PERFORMANCE.md "GEMM
# kernel"), bit for bit, again at GOAMD64=v3, where the compiler may
# fuse a multiply and an add into one FMA: kernel and oracle must still
# agree. Only on a CPU that can run v3 code.
if grep -qw fma /proc/cpuinfo 2>/dev/null && grep -qw avx2 /proc/cpuinfo; then
	GOAMD64=v3 go test -count=1 -run '^TestMatMulMatchesNaiveProperty$' ./internal/tensor/
fi
# One executor, one oracle (docs/PERFORMANCE.md "One executor"): every
# compiled plan — fused, unfused, int8, with and without pool workers —
# against the interpreter on seeded random model graphs, bit for bit;
# a failure prints the seed and -graphseed N replays it. Then the
# daemons: each one's answer against the oracle on the model it serves,
# and plan lifetimes across Close with predicts in flight or queued
# behind Ray Serve's one replica, and failed starts (the suite's TestMain
# leak-checks every pool worker and handler).
go test -race -count=1 -run 'TestGraphDifferential|TestGraphGeneratorCoverage|TestGraphRejection' ./internal/model/
go test -race -count=1 \
	-run 'TestDaemonsMatchOracleBitForBit|TestCloseWaitsOutInflightPredicts|TestRayServeCloseWithPredictsQueued|TestStartFailureReleasesPlan' \
	./internal/serving/external/
# Load-generator conformance (docs/SCENARIOS.md): arrival schedules must
# replay byte-identically per seed and scenario verdict logic must match
# the documented constraints. The producer/pacer path crosses goroutines,
# so this runs race-enabled and by name.
go test -race -count=1 \
	-run 'TestScheduleDeterminism|TestScheduleGolden|TestScenarioVerdicts|TestPacer' \
	./internal/loadgen/
go test -race -count=1 -run 'TestRunScenario' ./internal/core/
# The modelled-time wait (DESIGN.md §5 "Modelled time"): the pacer and
# every modelled delay wait with timing.WaitUntil, which must end within
# 10 % of its target at p50 and 25 % at p99, from 20 µs to 2 ms. The p99
# half needs the waiting thread to have a core to itself, so the test
# runs here alone, by name and without -race (which slows the clock reads
# the spin makes); the full sweep below judges p50 only.
CRAYFISH_WAIT_P99=1 go test -count=1 -run '^TestWaitAccuracy$' ./internal/timing/
# One experiment pipeline (DESIGN.md `internal/core`): a fault run and the
# broker-less baseline are the ordinary run's prelude and loop, so what
# Config says holds in them too — Batching under a fault plan (same fault
# log, nothing lost), Load, DatasetPath and Network in RunStandalone.
# Every run is a cluster run: an ordinary run at one node and at three
# accounts for every event once, a Transport override refuses more than
# one node, and brokerd without -peers is a one-node cluster serving a
# plain client. A one-node fault run's message-fault books, replay,
# scorer-error window and daemon crash/restart ride the partition-aware
# client, and its consumers park at the node. The injector, the batcher,
# the controller and the standalone workers all cross goroutines:
# race-enabled and by name.
go test -race -count=1 \
	-run 'TestRunRecovery|TestRunStandaloneHonoursConfig|TestRunClusterSizes|TestRunTransportOverrideIsOneNode|TestStartClusterOneNode' \
	./internal/core/ ./cmd/brokerd/
# The producer's sample pool and the operator's float parse
# (docs/PERFORMANCE.md "Off both strconv floors"): a pooled record is
# the generator's batch formatted, a repeated sample is scored in full,
# and every float the fast path returns is strconv's bit for bit. Then
# a Submitter's bounded flush fan-out, whose workers share one index
# counter, and its per-record books: race-enabled and by name.
go test -race -count=1 -run 'TestSamplePool|TestRepeatedSampleCostsAFullScore|TestParseJSONFloat32MatchesStrconv' ./internal/core/
go test -race -count=1 -run 'TestTransformManyBoundsFanOut|TestSubmitterMetricsCountRecords' ./internal/sps/
# Static-analysis self-tests (docs/STATIC_ANALYSIS.md): the CFG/dataflow
# analyzers and deadexport must match the fixture markers exactly, each
# deadexport finding must name its disposition, the directive grammar
# must associate suppressions to the right lines, and the wave-parallel
# type-checking loader is the one concurrent piece of the lint pipeline —
# so this runs race-enabled and by name for an attributable failure.
go test -race -count=1 \
	-run 'TestCFG|TestForward|TestSuiteMatchesFixtureMarkers|TestEveryAnalyzerCatchesItsSeed|TestDeadExport|TestDirective|TestParallelLoadMatchesSerialView' \
	./internal/analysis/
# Cluster conformance (docs/CLUSTER.md): a leader kill mid-produce must
# lose zero acked records, a follower kill must be client-invisible, and
# a broker-membership rebalance must not double-consume any offset —
# in-process and again over real TCP with torn-frame chaos. Every Broker
# is a cluster node, so the gate is one table: every Transport op on a
# closed broker answers errClosed, on a crashed node the retryable
# errNodeDown. The partition-aware client splits a fetch by leader on
# every attempt (a stale view must not fail a poll) and parks at most a
# millisecond at one of several leaders without spinning. Views are
# shared, so a view held across a follower's death, return and
# re-admission must not change; a one-node cluster starts no goroutine.
# Replication is all cross-goroutine (fetchers, ack waiters, the
# controller sweep), so this runs race-enabled and by name; the
# clustertest binary also leak-checks every node, server, and client
# join.
go test -race -count=1 -run 'TestCluster|TestClosedBrokerRejectsOps|TestOneNodeClusterStartsNoGoroutine' ./internal/broker/ ./internal/broker/clustertest/
# Blocking fetch (docs/PERFORMANCE.md "Blocking fetch"): consumers park
# at the broker and are woken by appends, cancels, deletions and closes
# from other goroutines — a lost wake-up or a waiter nobody tells shows
# as a hang, not as a wrong value. Race-enabled and by name: the await
# ends in process and over TCP, on the node New builds and on node 0 of
# a one-node NewCluster, at the leader of replicated partitions
# (high-watermark advance, leadership loss, crash; an unacked append
# does not end the wait), a produce across the crash of a one-node
# cluster's only node acks after its restart, the 10 000-round
# ping-pong, shutdown and Close with a call parked — a broker call, and a
# grpcish call on the same connection pool — and every engine's Stop with
# its sources parked for an hour. The idle-consumer test also runs
# through the partition-aware client of a one-node cluster, which parks
# at the node for the whole wait.
go test -race -count=1 -timeout 5m \
	-run 'TestAwait|TestOneNodeClusterCrashRestart|TestPollNeverLosesAWakeUp|TestIdleConsumerCallsPerWait|TestServerCloseWakesParkedAwait|TestRemoteCloseEndsCallInFlight|TestRemoteAwaitCancelDropsTheConnection|TestCloseEndsCallInFlight|TestCancelDropsTheConnection' \
	./internal/broker/ ./internal/grpcish/
go test -race -count=1 -timeout 5m \
	-run 'TestConformance/StopWhileParked|TestAsyncIOConformance/StopWhileParked|TestAsyncIOFlushesWhileSourceIsParked' \
	./internal/sps/...
# A failed start leaves nothing running: with its output topic missing,
# or its transport refusing part-way through the start, every engine's
# Run must fail under uniform and per-operator parallelism without a
# goroutine left behind (no caller holds a Job to Stop). Then flink's
# network-buffer split at its real 32 KiB segment. Race-enabled and by
# name.
go test -race -count=1 \
	-run 'TestConformance/StartFailure|TestAsyncIOConformance/StartFailure|TestSegmentation|TestLargeRecordsFlowThroughBufferSplit' \
	./internal/sps/...
go test -race ./...
# Decoder fuzz smoke (ROADMAP item 5a): the specialised JSON DataBatch
# decoder and encoding/json must agree on every input the fuzzer finds in
# a few seconds; the checked-in corpus already ran as a unit test above.
go test -run '^$' -fuzz '^FuzzJSONBatchDecode$' -fuzztime 8s ./internal/core/
# The one-pass float parse under it: on arbitrary text it reads a JSON
# number prefix or nothing, and what it reads is strconv's float32.
go test -run '^$' -fuzz '^FuzzParseJSONFloat32$' -fuzztime 8s ./internal/core/
# The broker's wire frames (docs/CLUSTER.md "Wire protocol"): no input
# may panic a decoder or make it size anything beyond what its payload
# holds, and whatever decodes must re-encode to the same bytes.
go test -run '^$' -fuzz '^FuzzWireFrameDecode$' -fuzztime 8s ./internal/broker/
# The four model-storage decoders, under the wire frames' contract: no
# input panics one, no decoded shape holds more floats than the input
# carries, and whatever decodes re-encodes to the same model.
go test -run '^$' -fuzz '^FuzzModelDecode$' -fuzztime 8s ./internal/modelfmt/
# The serving RPC frames and the batch payload they carry, under the same
# contract: a length header alone commits no body, and whatever decodes
# re-encodes to the same bytes.
go test -run '^$' -fuzz '^FuzzRPCFrame$' -fuzztime 8s ./internal/grpcish/
CRAYFISH_BENCH_SCALE=0.05 go test -run NONE -bench . -benchtime=1x .
# Inference microbenchmarks at smoke scale: validates the harness and the
# JSON pipeline without overwriting the tracked BENCH_inference.json
# trajectory with few-iteration timing noise (full runs: scripts/bench.sh).
BENCHTIME=5x OUT="${TMPDIR:-/tmp}/BENCH_inference.check.json" ./scripts/bench.sh
