package flink

import (
	"sync/atomic"
	"testing"
	"time"

	"crayfish/internal/sps"
	"crayfish/internal/sps/spstest"
)

func TestAsyncIOConformance(t *testing.T) {
	spstest.RunConformance(t, func() sps.Processor {
		e := New()
		e.AsyncIO = true
		return e
	})
}

func TestAsyncIOBatchingConformance(t *testing.T) {
	spstest.RunBatchingConformance(t, func() sps.Processor {
		e := New()
		e.AsyncIO = true
		return e
	})
}

func TestAsyncIOOverlapsBlockingCalls(t *testing.T) {
	// With a 5ms blocking transform, the async operator must sustain
	// far more than 200 events/s at one slot; the blocking operator
	// cannot.
	h := spstest.NewHarness(t, 2, 2)
	var calls atomic.Int64
	h.Spec.Transform = func(v []byte) ([]byte, error) {
		calls.Add(1)
		time.Sleep(5 * time.Millisecond)
		return v, nil
	}
	h.Produce(t, 400)

	run := func(async bool) int {
		calls.Store(0)
		e := New()
		e.AsyncIO = async
		job, err := e.Run(h.Spec)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(250 * time.Millisecond)
		if err := job.Stop(); err != nil {
			t.Fatal(err)
		}
		return int(calls.Load())
	}

	blocking := run(false)
	h2 := spstest.NewHarness(t, 2, 2)
	h2.Spec.Transform = h.Spec.Transform
	h2.Produce(t, 400)
	h.Spec = h2.Spec // fresh topics for the async leg
	asyncCalls := run(true)

	// Blocking: ≤ ~50 calls in 250ms at 5ms each (two partitions, one
	// slot). Async with capacity 16 should far exceed it.
	if asyncCalls < blocking*2 {
		t.Fatalf("async I/O did not overlap: %d async vs %d blocking calls", asyncCalls, blocking)
	}
}

// TestAsyncIOFlushesWhileSourceIsParked: results that complete after the
// source went idle reach the sink without waiting for the source to come
// back — through a transport whose awaits last an hour, it never does.
func TestAsyncIOFlushesWhileSourceIsParked(t *testing.T) {
	h := spstest.NewHarness(t, 1, 1)
	patient := &spstest.Patient{Transport: h.Broker}
	h.Spec.Transport = patient
	release := make(chan struct{})
	var entered atomic.Int64
	h.Spec.Transform = func(v []byte) ([]byte, error) {
		entered.Add(1)
		<-release
		return v, nil
	}
	e := New()
	e.AsyncIO = true
	job, err := e.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	// Fewer than sinkFlushRecords, so that only the idle flush can send
	// them; their transforms finish once the source is parked again.
	const n = sinkFlushRecords - 1
	h.Produce(t, n)
	for deadline := time.Now().Add(10 * time.Second); entered.Load() < n || patient.Parked.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the source never took the records and parked again")
		}
	}
	close(release)
	if out := h.CollectOutput(t, n, 10*time.Second); len(out) != n {
		t.Fatalf("%d of %d async results reached the sink with the source parked", len(out), n)
	}
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncIODrainsOnStop(t *testing.T) {
	h := spstest.NewHarness(t, 1, 1)
	h.Spec.Transform = func(v []byte) ([]byte, error) {
		time.Sleep(2 * time.Millisecond)
		return v, nil
	}
	h.Produce(t, 10)
	e := New()
	e.AsyncIO = true
	job, err := e.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	out := h.CollectOutput(t, 10, 5*time.Second)
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("async job delivered %d of 10 records", len(out))
	}
}
