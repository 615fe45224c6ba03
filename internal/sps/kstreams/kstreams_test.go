package kstreams

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"crayfish/internal/sps"
	"crayfish/internal/sps/spstest"
)

func TestConformance(t *testing.T) {
	spstest.RunConformance(t, func() sps.Processor { return newEngine() })
}

func TestFaultConformance(t *testing.T) {
	spstest.RunFaultConformance(t, func() sps.Processor { return newEngine() })
}

func TestBatchingConformance(t *testing.T) {
	spstest.RunBatchingConformance(t, func() sps.Processor { return newEngine() })
}

func TestRegistered(t *testing.T) {
	p, err := sps.New("kafka-streams")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "kafka-streams" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestCommitsOffsetsAsItProcesses(t *testing.T) {
	h := spstest.NewHarness(t, 2, 2)
	h.Produce(t, 10)
	e := newEngine()
	e.commitInterval = -1 // commit after every processed batch
	job, err := e.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	out := h.CollectOutput(t, 10, 10*time.Second)
	if len(out) != 10 {
		t.Fatalf("got %d records", len(out))
	}
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
	// The group's committed offsets must cover everything processed —
	// the pull model commits after each processed poll.
	var committed int64
	for p := 0; p < 2; p++ {
		off, err := h.Broker.CommittedOffset(h.Spec.Group, topicPartition("in", p))
		if err != nil {
			t.Fatal(err)
		}
		committed += off
	}
	if committed != 10 {
		t.Fatalf("committed %d offsets, want 10", committed)
	}
}

func TestThreadsCappedByPartitions(t *testing.T) {
	// 8 threads over 2 partitions must not deadlock or duplicate.
	h := spstest.NewHarness(t, 2, 2)
	h.Spec.Parallelism = sps.Parallelism{Default: 8}
	h.Produce(t, 12)
	job, err := newEngine().Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	out := h.CollectOutput(t, 12, 10*time.Second)
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 12 {
		t.Fatalf("got %d records, want 12 exactly (no duplicates)", len(out))
	}
}

func TestCommitIntervalThrottles(t *testing.T) {
	e := newEngine()
	e.commitInterval = time.Hour // never inside the test window
	h := spstest.NewHarness(t, 1, 1)
	h.Produce(t, 5)
	job, err := e.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	out := h.CollectOutput(t, 5, 10*time.Second)
	if len(out) != 5 {
		t.Fatalf("got %d records", len(out))
	}
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
	// With an hour-long commit interval no commit fires inside the
	// test window.
	off, err := h.Broker.CommittedOffset(h.Spec.Group, topicPartition("in", 0))
	if err != nil {
		t.Fatal(err)
	}
	if off >= 5 {
		t.Fatalf("commit throttling ineffective: committed %d", off)
	}
}

func TestCrashRecoveryViaCommittedOffsets(t *testing.T) {
	// Kafka Streams' native at-least-once: offsets commit only after a
	// processed batch is flushed to the sink, so a job restarted with
	// the same group id resumes from the last commit without losing
	// records (duplicates in the uncommitted window are allowed).
	h := spstest.NewHarness(t, 2, 2)
	const total = 150
	h.Produce(t, total)

	base := h.Spec.Transform
	var processed atomic.Int64
	h.Spec.Transform = func(v []byte) ([]byte, error) {
		processed.Add(1)
		time.Sleep(500 * time.Microsecond)
		return base(v)
	}
	e := newEngine()
	e.commitInterval = -1 // commit after every processed batch
	e.pollRecords = 8
	job, err := e.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	for processed.Load() < total/3 {
		time.Sleep(time.Millisecond)
	}
	if err := job.Stop(); err != nil { // the crash
		t.Fatal(err)
	}

	// Restart with the same consumer group: resumes from commits.
	job2, err := e.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	var seen map[string]bool
	for {
		seen = map[string]bool{}
		for _, v := range h.CollectOutput(t, 1<<30, 300*time.Millisecond) {
			seen[string(v)] = true
		}
		if len(seen) >= total || time.Now().After(deadline) {
			break
		}
	}
	if err := job2.Stop(); err != nil {
		t.Fatal(err)
	}
	missing := 0
	for i := 0; i < total; i++ {
		if !seen[fmt.Sprintf("r%d!scored", i)] {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("at-least-once violated: %d of %d records lost", missing, total)
	}
}
