package spstest

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"crayfish/internal/batching"
	"crayfish/internal/sps"
	"crayfish/internal/telemetry"
)

// RunBatchingConformance exercises an engine with the dynamic
// micro-batcher enabled: coalesced output must be byte-identical to the
// unbatched run, the sps.batch.* telemetry must balance, and a
// partial-batch scorer fault must drop only the failing records
// (counted on sps.score.dropped) while the rest of the batch flows on.
// Every engine test file runs it (scripts/check.sh repeats it under
// -race).
func RunBatchingConformance(t *testing.T, factory func() sps.Processor) {
	t.Helper()
	t.Run("ByteIdenticalToUnbatched", func(t *testing.T) { testBatchingByteIdentical(t, factory) })
	t.Run("PartialBatchFaultDropsOnlyFailing", func(t *testing.T) { testPartialBatchFault(t, factory()) })
	t.Run("TailsShipWithoutLinger", func(t *testing.T) { testTailsShipWithoutLinger(t, factory()) })
}

// batchEcho is the multi-record form of the harness transform: each
// value gains the "!scored" suffix, positionally.
func batchEcho(values [][]byte) ([][]byte, error) {
	outs := make([][]byte, len(values))
	for i, v := range values {
		outs[i] = append(append([]byte(nil), v...), []byte("!scored")...)
	}
	return outs, nil
}

// testBatchingByteIdentical runs the same workload through the same
// engine twice — once unbatched, once with Batching set — and requires
// the sorted output values to match byte for byte. It then audits the
// batching telemetry: every record passed through exactly one batch,
// every flush was size-, quorum- or linger-triggered, and no batch
// exceeded the policy cap.
func testBatchingByteIdentical(t *testing.T, factory func() sps.Processor) {
	const n = 48
	run := func(batched bool) ([][]byte, *telemetry.Registry) {
		h := NewHarness(t, 4, 4)
		reg := telemetry.New()
		h.Spec.Metrics = reg
		h.Spec.Parallelism = sps.Parallelism{Default: 4}
		if batched {
			h.Spec.BatchTransform = batchEcho
			h.Spec.Batching = &batching.Policy{MaxBatch: 8, Linger: 2 * time.Millisecond}
		}
		h.Produce(t, n)
		job, err := factory().Run(h.Spec)
		if err != nil {
			t.Fatal(err)
		}
		out := h.CollectOutput(t, n, 10*time.Second)
		if err := job.Stop(); err != nil {
			t.Fatalf("stop (batched=%v): %v", batched, err)
		}
		return out, reg
	}

	want, _ := run(false)
	got, reg := run(true)
	if len(got) != n || len(want) != n {
		t.Fatalf("got %d batched records and %d unbatched, want %d of each", len(got), len(want), n)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: batched output %q differs from unbatched %q", i, got[i], want[i])
		}
	}

	sizes := reg.Histogram("sps.batch.size")
	if sizes.Count() == 0 {
		t.Fatal("sps.batch.size recorded no flushes; the batcher never ran")
	}
	if sizes.Sum() != n {
		t.Fatalf("sps.batch.size sum = %d records across batches, want %d", sizes.Sum(), n)
	}
	flushes := reg.Counter("sps.batch.size_flush").Value() + reg.Counter("sps.batch.quorum_flush").Value() +
		reg.Counter("sps.batch.linger_flush").Value()
	if flushes != sizes.Count() {
		t.Fatalf("size_flush + quorum_flush + linger_flush = %d, but %d batches were recorded", flushes, sizes.Count())
	}
	if target := reg.Gauge("sps.batch.target").Value(); target != 8 {
		t.Fatalf("sps.batch.target = %d without an SLO, want the fixed MaxBatch 8", target)
	}
}

// testPartialBatchFault injects a scorer that rejects any batch
// containing the poison record, and rejects the poison record again on
// the single-record fallback. The batcher must isolate the fault: every
// healthy record — including the poison record's batchmates — reaches
// the output, and exactly the poison record lands on sps.score.dropped.
func testPartialBatchFault(t *testing.T, proc sps.Processor) {
	const n = 24
	poison := []byte("r7")
	h := NewHarness(t, 2, 2)
	reg := telemetry.New()
	h.Spec.Metrics = reg
	h.Spec.Parallelism = sps.Parallelism{Default: 2}
	single := h.Spec.Transform
	h.Spec.Transform = func(v []byte) ([]byte, error) {
		if bytes.Equal(v, poison) {
			return nil, fmt.Errorf("injected scorer fault on %q", v)
		}
		return single(v)
	}
	h.Spec.BatchTransform = func(values [][]byte) ([][]byte, error) {
		for _, v := range values {
			if bytes.Equal(v, poison) {
				return nil, fmt.Errorf("injected batch fault: batch of %d contains %q", len(values), v)
			}
		}
		return batchEcho(values)
	}
	h.Spec.Batching = &batching.Policy{MaxBatch: 6, Linger: 2 * time.Millisecond}

	h.Produce(t, n)
	job, err := proc.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	out := h.CollectOutput(t, n-1, 10*time.Second)
	giveUp := time.NewTimer(5 * time.Second)
	defer giveUp.Stop()
	select {
	case <-job.ErrSignal():
	case <-giveUp.C:
		t.Fatalf("%s: poison record's error never surfaced", proc.Name())
	}
	// Stop returns the surfaced poison error by design; only the drain
	// matters here.
	_ = job.Stop()

	if len(out) != n-1 {
		t.Fatalf("%s: got %d records, want %d (all but the poison record)", proc.Name(), len(out), n-1)
	}
	for _, v := range out {
		if bytes.Equal(v, []byte("r7!scored")) {
			t.Fatalf("%s: poison record reached the output", proc.Name())
		}
	}
	if got := reg.Counter("sps.score.dropped").Value(); got != 1 {
		t.Fatalf("%s: sps.score.dropped = %d, want 1 (only the poison record)", proc.Name(), got)
	}
}

// testTailsShipWithoutLinger runs one operator instance under an
// hour's linger. The instance's Submitter is the batcher's only
// registered submitter, so each poll's tail ships the moment it parks:
// every record must arrive within the usual collect timeout, no batch
// may wait out the linger, and Stop must leave no submitter registered.
// flink's async I/O operator scores record by record through unregistered
// calls, so it lingers by design and is skipped — and only it: any other
// engine that registers nothing fails here.
func testTailsShipWithoutLinger(t *testing.T, proc sps.Processor) {
	if asyncIO(proc) {
		t.Skipf("%s with AsyncIO scores record by record outside the quorum and lingers by design", proc.Name())
	}
	const n = 29 // not a multiple of MaxBatch: every run leaves tails
	h := NewHarness(t, 2, 2)
	reg := telemetry.New()
	h.Spec.Metrics = reg
	h.Spec.Parallelism = sps.Parallelism{Default: 1}
	h.Spec.BatchTransform = batchEcho
	h.Spec.Batching = &batching.Policy{MaxBatch: 8, Linger: time.Hour}
	job, err := proc.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	submitters := reg.Gauge("sps.batch.submitters")
	if got := submitters.Value(); got != 1 {
		_ = job.Stop()
		t.Fatalf("%s at mp 1 registered %d submitters with the batcher, want 1", proc.Name(), got)
	}
	h.Produce(t, n)
	out := h.CollectOutput(t, n, 10*time.Second)
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("%s: %d of %d records arrived under an hour's linger", proc.Name(), len(out), n)
	}
	if got := reg.Counter("sps.batch.linger_flush").Value(); got != 0 {
		t.Fatalf("%s: %d batches waited out the linger, want none", proc.Name(), got)
	}
	if reg.Counter("sps.batch.quorum_flush").Value() == 0 {
		t.Fatalf("%s: no batch shipped by quorum", proc.Name())
	}
	if got := submitters.Value(); got != 0 {
		t.Fatalf("%s: %d submitters still registered after Stop", proc.Name(), got)
	}
}

// asyncIO reports whether proc is an engine configured for async I/O:
// a struct with an exported AsyncIO field set (flink.Engine).
func asyncIO(proc sps.Processor) bool {
	v := reflect.Indirect(reflect.ValueOf(proc))
	if v.Kind() != reflect.Struct {
		return false
	}
	f := v.FieldByName("AsyncIO")
	return f.IsValid() && f.Kind() == reflect.Bool && f.Bool()
}
