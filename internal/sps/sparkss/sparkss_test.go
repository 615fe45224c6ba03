package sparkss

import (
	"testing"
	"time"

	"crayfish/internal/broker"
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
	p, err := sps.New("spark-ss")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "spark-ss" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestMicroBatchingBatchesSinkWrites(t *testing.T) {
	// All records available at one trigger must land in the sink as a
	// small number of batched appends, not one append per record.
	e := New()
	e.TriggerInterval = 5 * time.Millisecond
	h := spstest.NewHarness(t, 2, 1)
	h.Produce(t, 50)
	job, err := e.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	out := h.CollectOutput(t, 50, 10*time.Second)
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 50 {
		t.Fatalf("got %d records, want 50", len(out))
	}
	// Batched appends share a LogAppendTime per micro-batch; 50 records
	// must collapse into far fewer distinct append timestamps.
	c, err := broker.NewAssignedConsumer(h.Broker, "out")
	if err != nil {
		t.Fatal(err)
	}
	stamps := map[int64]bool{}
	for {
		recs, err := c.Poll(64, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			stamps[r.AppendTime.UnixNano()] = true
		}
	}
	if len(stamps) > 20 {
		t.Fatalf("%d distinct append stamps for 50 records; micro-batching not batching", len(stamps))
	}
}

func TestTriggerIntervalSetsLatencyFloor(t *testing.T) {
	e := New()
	e.TriggerInterval = 30 * time.Millisecond
	h := spstest.NewHarness(t, 1, 1)
	job, err := e.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	// Let the driver go idle, then measure arrival-to-sink delay.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	h.Produce(t, 1)
	out := h.CollectOutput(t, 1, 5*time.Second)
	elapsed := time.Since(start)
	if len(out) != 1 {
		t.Fatalf("got %d records", len(out))
	}
	if elapsed > 10*time.Second {
		t.Fatalf("latency %v implausible", elapsed)
	}
	// The record waited for the next trigger: latency cannot be far
	// below the trigger interval on average; allow generous slack for
	// scheduling but require a visible floor.
	if elapsed < time.Millisecond {
		t.Fatalf("latency %v below any plausible micro-batch floor", elapsed)
	}
}

func TestExecutorChunking(t *testing.T) {
	// The stage splitter must cover every record exactly once for any
	// executor count.
	for _, executors := range []int{1, 2, 3, 7, 50} {
		h := spstest.NewHarness(t, 1, 1)
		h.Spec.Parallelism = sps.Parallelism{Default: executors}
		h.Produce(t, 23)
		job, err := New().Run(h.Spec)
		if err != nil {
			t.Fatal(err)
		}
		out := h.CollectOutput(t, 23, 10*time.Second)
		if err := job.Stop(); err != nil {
			t.Fatal(err)
		}
		if len(out) != 23 {
			t.Fatalf("executors=%d: got %d records, want 23", executors, len(out))
		}
	}
}
