package flink

import (
	"bytes"
	"testing"
	"time"

	"crayfish/internal/sps"
	"crayfish/internal/sps/spstest"
)

func TestConformance(t *testing.T) {
	spstest.RunConformance(t, func() sps.Processor { return New() })
}

func TestFaultConformance(t *testing.T) {
	spstest.RunFaultConformance(t, func() sps.Processor { return New() })
}

func TestBatchingConformance(t *testing.T) {
	spstest.RunBatchingConformance(t, func() sps.Processor { return New() })
}

func TestRegistered(t *testing.T) {
	p, err := sps.New("flink")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "flink" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestOperatorLevelParallelism(t *testing.T) {
	// flink[4-1-4]: distinct source/score/sink parallelism exercises the
	// unchained topology (Figure 12).
	h := spstest.NewHarness(t, 4, 4)
	h.Spec.Parallelism = sps.Parallelism{Source: 4, Sink: 4, Default: 1}
	const n = 30
	h.Produce(t, n)
	job, err := New().Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	out := h.CollectOutput(t, n, 10*time.Second)
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("unchained: got %d records, want %d", len(out), n)
	}
}

func TestSegmentationRoundTrip(t *testing.T) {
	const seg = segmentSize
	for _, size := range []int{0, 1, seg - 1, seg, seg + 1, 3*seg + 7} {
		value := make([]byte, size)
		for i := range value {
			value[i] = byte(i)
		}
		rec := segment(value)
		wantSegs := (size + seg - 1) / seg
		if wantSegs == 0 {
			wantSegs = 1
		}
		if len(rec.segments) != wantSegs {
			t.Fatalf("size %d: %d segments, want %d", size, len(rec.segments), wantSegs)
		}
		if !bytes.Equal(rec.reassemble(), value) {
			t.Fatalf("size %d: reassembly corrupted", size)
		}
	}
}

func TestSegmentationCopies(t *testing.T) {
	value := []byte("immutable")
	rec := segment(value)
	value[0] = 'X'
	if rec.reassemble()[0] == 'X' {
		t.Fatal("segment aliased the source buffer")
	}
}

func TestLargeRecordsFlowThroughBufferSplit(t *testing.T) {
	// A record much larger than the segment size must survive the
	// network-buffer split (the bsz=512 latency experiments send
	// multi-MB batches).
	h := spstest.NewHarness(t, 1, 1)
	big := make([]byte, 300_000)
	for i := range big {
		big[i] = byte(i % 251)
	}
	h.Spec.Transform = func(v []byte) ([]byte, error) { return v, nil }
	if _, err := h.Broker.Produce("in", 0, mkRecords(big)); err != nil {
		t.Fatal(err)
	}
	job, err := New().Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	out := h.CollectOutput(t, 1, 10*time.Second)
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !bytes.Equal(out[0], big) {
		t.Fatal("large record corrupted by buffer split")
	}
}
