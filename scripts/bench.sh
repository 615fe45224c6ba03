#!/bin/sh
# Inference microbenchmark harness (docs/PERFORMANCE.md): runs the
# kernel-, plan-, scorer-, and batching-level benchmarks with -benchmem
# and writes BENCH_inference.json. The scorer section pins one PR-level
# claim — the planned (ONNX) embedded scorer's B/op must sit at least
# 10x below the unplanned (SavedModel) baseline, at no ns/op cost — and
# the external batching pair pins another: coalescing 16 records into
# one wire call must score at least 2x the records/sec of 16 single
# calls (batched_vs_unbatched_ratio). The quantized pair pins a third:
# the packed int8 GEMM must run at least 2x the float32 blocked GEMM at
# the same shape (int8_speedup_ratio), with its accuracy cost booked as
# int8_top1_delta (docs/QUANTIZATION.md). The scenario sweep books a
# capacity claim: server_capacity_rps is the highest offered Poisson
# rate whose p99 stays under the server scenario's bound
# (docs/SCENARIOS.md), so later speedups move a measured capacity. The
# attention pair pins the transformer-kernel claim: the tiled
# flash-style attention must run at least 1.5x the score-materializing
# reference at the same shape (attention_fused_speedup), and the
# compiled transformer plan's steady-state cost is booked as
# transformer_ns_op (docs/PERFORMANCE.md "Fused transformer kernels").
# The codec pair books the pipeline's JSON DataBatch codec on an FFNN
# record (json_codec_marshal_ns, json_codec_unmarshal_ns) and its
# speed-up over encoding/json, the oracle it must match byte for byte
# (docs/PERFORMANCE.md "Pipeline codec"), and the two calls that convert
# no input float: the operator's encode of a batch it decoded
# (json_codec_rescore_ns) and the output consumer's read of id and
# created_ns (json_codec_stamp_ns). Beside them, producer_record_ns is
# the input producer's steady-state cost per event on the same FFNN
# shape: its header around a pooled sample's retained inputs, against
# drawing and formatting the sample afresh (producer_record_vs_format).
# The broker rung books the TCP wire path (docs/PERFORMANCE.md "Broker
# wire"): one 16-record FFNN-sized records frame through the binary
# frame codec (wire_frame_encode_ns, wire_frame_decode_ns) and a produce
# plus the fetch that reads it back over loopback, per record
# (broker_tcp_rt_us_per_rec). The wake rung books the blocking fetch
# (docs/PERFORMANCE.md "Blocking fetch"): the time from an append to the
# parked consumer holding the record, in process and over loopback
# (poll_wake_us_inproc, poll_wake_us_tcp). The deadline-wait rung books
# the modelled-time wait every paced event and modelled delay goes
# through (DESIGN.md §5): per wait at 20 µs, 200 µs and 2 ms, how late it
# ended at p50 and p99 and the process CPU it burned
# (deadline_wait_err_p50_us, deadline_wait_err_p99_us, deadline_wait_cpu_us).
#
#   BENCHTIME   per-benchmark budget (default 1s; check.sh passes 50x)
#   OUT         output path (default BENCH_inference.json)
set -e
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
OUT="${OUT:-BENCH_inference.json}"

go test -run NONE -benchmem -benchtime "$BENCHTIME" \
	-bench 'MatMulBlocked128|QMatMul$|Conv2D$|Conv2DInto$|ConvDirectVsWinograd|PlanForward|QPlanAgreement$|UnplannedForward|ScoreResNet|ScoreFFNN|ScoreBatchedVsUnbatched|ServerCapacitySweep$|BrokerFailover$|AttentionFusedVsUnfused|JSONCodec|ProducerRecord|WireFrame|RemoteProduceFetch$|PollWake|DeadlineWait' \
	./internal/tensor/ ./internal/model/ ./internal/serving/embedded/ ./internal/serving/external/ ./internal/core/ ./internal/broker/ . \
	| awk -v benchtime="$BENCHTIME" '
	/^pkg:/ { pkg = $2 }
	/^Benchmark/ && /ns\/op/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		ns = $3; bytes = 0; allocs = 0
		for (i = 4; i <= NF; i++) {
			if ($i == "B/op") bytes = $(i - 1)
			if ($i == "allocs/op") allocs = $(i - 1)
			if ($i == "capacity_rps") cap = $(i - 1)
			if ($i == "recovery_ms") ttr = $(i - 1)
			if ($i == "top1_delta") { delta = $(i - 1); dseen = 1 }
			if ($i == "err_p50_us") werr50 = $(i - 1)
			if ($i == "err_p99_us") werr99 = $(i - 1)
			if ($i == "cpu_us") wcpu = $(i - 1)
		}
		if (n++) printf ",\n"
		printf "    {\"pkg\": \"%s\", \"name\": \"%s\", \"iters\": %s, \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}", pkg, name, $2, ns, bytes, allocs
		if (name ~ /MatMulBlocked128$/)    { fns = ns }
		if (name ~ /BenchmarkQMatMul$/)    { qns = ns }
		if (name ~ /ScoreResNetPlanned/)   { pb = bytes; pns = ns }
		if (name ~ /ScoreResNetUnplanned/) { ub = bytes; uns = ns }
		if (name ~ /ScoreBatchedVsUnbatched\/unbatched$/) { sns = ns }
		if (name ~ /ScoreBatchedVsUnbatched\/batched$/)   { bns = ns }
		if (name ~ /AttentionFusedVsUnfused\/fused$/)     { afns = ns }
		if (name ~ /AttentionFusedVsUnfused\/unfused$/)   { auns = ns }
		if (name ~ /PlanForwardTransformer$/)             { tns = ns }
		if (name ~ /JSONCodecMarshal\/codec$/)            { jmns = ns }
		if (name ~ /JSONCodecMarshal\/encodingjson$/)     { jmons = ns }
		if (name ~ /JSONCodecUnmarshal\/codec$/)          { juns = ns }
		if (name ~ /JSONCodecUnmarshal\/encodingjson$/)   { juons = ns }
		if (name ~ /JSONCodecRescore\/codec$/)            { jrns = ns }
		if (name ~ /JSONCodecRescore\/encodingjson$/)     { jrons = ns }
		if (name ~ /JSONCodecStamp\/codec$/)              { jsns = ns }
		if (name ~ /JSONCodecStamp\/encodingjson$/)       { jsons = ns }
		if (name ~ /ProducerRecord\/pool$/)               { prns = ns }
		if (name ~ /ProducerRecord\/format$/)             { prfns = ns }
		if (name ~ /WireFrameEncode$/)                    { wens = ns }
		if (name ~ /WireFrameDecode$/)                    { wdns = ns }
		if (name ~ /RemoteProduceFetch$/)                 { rtns = ns }
		if (name ~ /PollWake\/inproc$/)                   { pwins = ns }
		if (name ~ /PollWake\/tcp$/)                      { pwtns = ns }
		if (name ~ /DeadlineWait\//) {
			target = name; sub(/.*\//, "", target)
			wsep = nw++ ? ", " : ""
			w50 = w50 wsep "\"" target "\": " werr50
			w99 = w99 wsep "\"" target "\": " werr99
			wcpus = wcpus wsep "\"" target "\": " wcpu
		}
	}
	END {
		printf "\n  ],\n"
		if (pb > 0 && ub > 0) {
			printf "  \"scorer_bytes_ratio\": %.2f,\n", ub / pb
			printf "  \"scorer_speed_ratio\": %.3f,\n", uns / pns
		}
		# The int8 kernel claim (docs/QUANTIZATION.md): the packed int8
		# GEMM vs the float32 blocked GEMM at the same 128^3 shape, and
		# the measured top-1 drift of the quantized FFNN plan on the
		# contract eval set.
		if (fns > 0 && qns > 0) {
			printf "  \"int8_speedup_ratio\": %.2f,\n", fns / qns
		}
		if (dseen) {
			printf "  \"int8_top1_delta\": %s,\n", delta
		}
		# Both sub-benchmarks score 16 records/op, so the ns/op ratio is
		# the records/sec gain of coalescing on the external path.
		if (sns > 0 && bns > 0) {
			printf "  \"batched_vs_unbatched_ratio\": %.2f,\n", sns / bns
		}
		# The fused-attention claim (docs/PERFORMANCE.md): the tiled
		# flash-style kernel vs the S x S score-materializing reference
		# at the pinned S=256, D=64, heads=4 shape (contract: >= 1.5x),
		# plus the compiled transformer plan cost.
		if (afns > 0 && auns > 0) {
			printf "  \"attention_fused_speedup\": %.2f,\n", auns / afns
		}
		if (tns > 0) {
			printf "  \"transformer_ns_op\": %s,\n", tns
		}
		# The pipeline codec (docs/PERFORMANCE.md "Pipeline codec"): one
		# scored FFNN record through the specialised JSON codec, and
		# how many times longer encoding/json takes for the same bytes.
		if (jmns > 0 && jmons > 0) {
			printf "  \"json_codec_marshal_ns\": %s,\n", jmns
			printf "  \"json_codec_marshal_vs_encodingjson\": %.2f,\n", jmons / jmns
		}
		if (juns > 0 && juons > 0) {
			printf "  \"json_codec_unmarshal_ns\": %s,\n", juns
			printf "  \"json_codec_unmarshal_vs_encodingjson\": %.2f,\n", juons / juns
		}
		# Floats nobody reads are not converted: the scoring operator
		# encoding a batch it decoded (its inputs copied from the
		# record) and the output consumer reading id and created_ns,
		# each against encoding/json doing the whole job.
		if (jrns > 0 && jrons > 0) {
			printf "  \"json_codec_rescore_ns\": %s,\n", jrns
			printf "  \"json_codec_rescore_vs_encodingjson\": %.2f,\n", jrons / jrns
		}
		if (jsns > 0 && jsons > 0) {
			printf "  \"json_codec_stamp_ns\": %s,\n", jsns
			printf "  \"json_codec_stamp_vs_encodingjson\": %.2f,\n", jsons / jsns
		}
		# The input producer per event once its sample pool is full,
		# against drawing and formatting every event.
		if (prns > 0 && prfns > 0) {
			printf "  \"producer_record_ns\": %s,\n", prns
			printf "  \"producer_record_vs_format\": %.2f,\n", prfns / prns
		}
		# The TCP wire path of the broker (docs/PERFORMANCE.md "Broker wire"):
		# a 16-record FFNN-sized records frame through the frame codec,
		# and a 16-record produce plus the fetch that reads it back over
		# loopback, per record.
		if (wens > 0 && wdns > 0) {
			printf "  \"wire_frame_encode_ns\": %s,\n", wens
			printf "  \"wire_frame_decode_ns\": %s,\n", wdns
		}
		if (rtns > 0) {
			printf "  \"broker_tcp_rt_us_per_rec\": %.2f,\n", rtns / 16 / 1000
		}
		# The blocking fetch (docs/PERFORMANCE.md "Blocking fetch"): one
		# append to the consumer parked in Poll holding the record, the
		# produce included, one record at a time.
		if (pwins > 0 && pwtns > 0) {
			printf "  \"poll_wake_us_inproc\": %.2f,\n", pwins / 1000
			printf "  \"poll_wake_us_tcp\": %.2f,\n", pwtns / 1000
		}
		# The modelled-time wait (DESIGN.md §5): per target, µs late at
		# p50 and p99, and µs of process CPU per wait.
		if (nw > 0) {
			printf "  \"deadline_wait_err_p50_us\": {%s},\n", w50
			printf "  \"deadline_wait_err_p99_us\": {%s},\n", w99
			printf "  \"deadline_wait_cpu_us\": {%s},\n", wcpus
		}
		# The server scenario capacity (highest offered Poisson rate
		# meeting the p99 bound; docs/SCENARIOS.md).
		if (cap > 0) {
			printf "  \"server_capacity_rps\": %s,\n", cap
		}
		# Leader-failover recovery on the replicated cluster: time from
		# the crash window closing to a fully caught-up output, with zero
		# acked-record loss asserted inside the benchmark
		# (docs/CLUSTER.md).
		if (ttr > 0) {
			printf "  \"failover_recovery_ms\": %s,\n", ttr
		}
		printf "  \"benchtime\": \"%s\"\n}\n", benchtime
	}
	BEGIN { printf "{\n  \"benchmarks\": [\n" }
	' >"$OUT"

echo "wrote $OUT"
grep -E "scorer_(bytes|speed)_ratio|int8_(speedup_ratio|top1_delta)|attention_fused_speedup" "$OUT" || true
