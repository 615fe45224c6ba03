package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"crayfish/internal/broker"
)

func newTestConsumer(t *testing.T) *OutputConsumer {
	t.Helper()
	b := broker.New(broker.DefaultConfig())
	if err := b.CreateTopic("out", 1); err != nil {
		t.Fatal(err)
	}
	oc, err := NewOutputConsumer(b, "out", nil)
	if err != nil {
		t.Fatal(err)
	}
	return oc
}

// An open-loop run never calls waitForCount, so recording a sample must
// not make (or close) a wake-up channel: amortised, it allocates nothing.
func TestConsumerRecordAllocatesNoChannelWithoutWaiter(t *testing.T) {
	oc := newTestConsumer(t)
	end := time.Now()
	var id int64
	n := testing.AllocsPerRun(5000, func() {
		oc.record(id, 1, end)
		id++
	})
	if n != 0 {
		t.Fatalf("record allocates %v times per sample with nobody waiting, want 0", n)
	}
	if oc.changed != nil {
		t.Fatal("wake-up channel exists with nobody waiting")
	}
}

// Every waitForCount races one record: a wake-up lost between reading
// the count and registering the channel would sit out the deadline.
func TestConsumerWaitForCountNeverMissesAWakeUp(t *testing.T) {
	oc := newTestConsumer(t)
	end := time.Now()
	for k := 1; k <= 2000; k++ {
		go oc.record(int64(k), 1, end)
		if !oc.waitForCount(k, time.Now().Add(5*time.Second)) {
			t.Fatalf("sample %d recorded but WaitForCount timed out", k)
		}
	}
	if oc.waitForCount(2001, time.Now().Add(time.Millisecond)) {
		t.Fatal("WaitForCount reported a sample nobody recorded")
	}
}

// The drain wait reads the sample count, not a copy of the samples: with
// 20 000 samples held, a wait that times out after several polls
// allocates nothing.
func TestDrainWaitDoesNotCopySamples(t *testing.T) {
	oc := newTestConsumer(t)
	end := time.Now()
	for id := int64(0); id < 20000; id++ {
		oc.record(id, 1, end)
	}
	n := testing.AllocsPerRun(5, func() {
		if oc.waitForSamples(20001, time.Now().Add(4*time.Millisecond)) {
			t.Error("wait reported a sample nobody recorded")
		}
	})
	if n != 0 {
		t.Fatalf("drain wait allocates %v times over ~4 polls of 20000 samples, want 0", n)
	}
	if !oc.waitForSamples(20000, time.Now().Add(time.Second)) {
		t.Fatal("wait missed samples already recorded")
	}
}

// holdingScorer scores four inputs into one constant output without
// compute; its last call runs hold before it returns, keeping the run in
// its drain wait for as long as hold takes.
type holdingScorer struct {
	calls atomic.Int64
	last  int64
	hold  func()
}

func (s *holdingScorer) Name() string    { return "hold" }
func (s *holdingScorer) InputLen() int   { return 4 }
func (s *holdingScorer) OutputSize() int { return 1 }

func (s *holdingScorer) Score(inputs []float32, count int) ([]float32, error) {
	if s.calls.Add(1) == s.last {
		s.hold()
	}
	return make([]float32, count), nil
}

// A 20 000-event saturating run drains completely through the runner's
// measurement loop, and while the last event is held for 100 ms — the
// producer done, nearly every sample recorded, the runner polling — the
// process allocates a
// small fraction of the one 1.28 MB sample copy per poll that
// len(oc.Samples()) cost (~120 MB over the hold).
func TestRunDrainWaitHoldsTwentyThousandSamplesWithoutCopying(t *testing.T) {
	const events = 20000
	cfg := quickConfig("flink", ServingConfig{Mode: Embedded, Tool: "onnx"})
	cfg.Workload = Workload{InputShape: []int{4}, BatchSize: 1, Duration: 30 * time.Second, MaxEvents: events, Seed: 1}
	var before, after runtime.MemStats
	scorer := &holdingScorer{last: events, hold: func() {
		runtime.ReadMemStats(&before)
		time.Sleep(100 * time.Millisecond)
		runtime.ReadMemStats(&after)
	}}
	b := broker.New(broker.DefaultConfig())
	defer b.Close()
	r := &Runner{DrainTimeout: 30 * time.Second}
	books, err := r.measure(cfg, b, scorer, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := books.Result
	if res.EngineErr != nil {
		t.Fatalf("engine error: %v", res.EngineErr)
	}
	if res.Metrics.Produced != events || res.Metrics.Consumed != events {
		t.Fatalf("produced %d, consumed %d, want %d each", res.Metrics.Produced, res.Metrics.Consumed, events)
	}
	if held := (after.TotalAlloc - before.TotalAlloc) >> 20; held > 16 {
		t.Fatalf("%d MB allocated while the drain wait held %d samples for 100 ms, want <= 16", held, events)
	}
}
