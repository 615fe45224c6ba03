package flink

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/faults"
	"crayfish/internal/sps"
	"crayfish/internal/sps/spstest"
)

func TestCheckpointValidation(t *testing.T) {
	h := spstest.NewHarness(t, 2, 2)
	e := New()
	spec := h.Spec
	spec.Parallelism = sps.Parallelism{Source: 4, Score: 1, Sink: 4, Default: 1}
	if _, err := e.RunCheckpointed(spec, Checkpoint{}, time.Millisecond); err == nil {
		t.Fatal("operator-level parallelism accepted for checkpointing")
	}
	if _, err := e.RunCheckpointed(h.Spec, Checkpoint{}, 0); err == nil {
		t.Fatal("zero interval accepted")
	}
	bad := h.Spec
	bad.Transform = nil
	if _, err := e.RunCheckpointed(bad, Checkpoint{}, time.Millisecond); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestCheckpointedJobDelivers(t *testing.T) {
	h := spstest.NewHarness(t, 2, 2)
	h.Produce(t, 30)
	job, err := New().RunCheckpointed(h.Spec, Checkpoint{}, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	out := h.CollectOutput(t, 30, 10*time.Second)
	// Wait for a checkpoint covering the processed records.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cp, ok := job.LatestCheckpoint(); ok {
			total := int64(0)
			for _, off := range cp.Positions {
				total += off
			}
			if total == 30 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never covered the processed records")
		}
		time.Sleep(time.Millisecond)
	}
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 30 {
		t.Fatalf("delivered %d of 30", len(out))
	}
}

// longestWait records the longest wait a job asked of Await.
type longestWait struct {
	broker.Transport
	longest atomic.Int64
}

func (l *longestWait) Await(topic string, positions []broker.FetchRequest, wait time.Duration, cancel <-chan struct{}) error {
	for {
		seen := l.longest.Load()
		if int64(wait) <= seen || l.longest.CompareAndSwap(seen, int64(wait)) {
			break
		}
	}
	return l.Transport.Await(topic, positions, wait, cancel)
}

// TestCheckpointWhileIdle: a job with nothing to read still checkpoints
// on its interval, because its poll never parks past the next one due.
func TestCheckpointWhileIdle(t *testing.T) {
	h := spstest.NewHarness(t, 2, 2)
	lw := &longestWait{Transport: h.Broker}
	h.Spec.Transport = lw
	const interval = 5 * time.Millisecond // well under broker.FetchMaxWait
	job, err := New().RunCheckpointed(h.Spec, Checkpoint{}, interval)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := job.LatestCheckpoint(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("an idle job never checkpointed")
		}
	}
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
	if longest := time.Duration(lw.longest.Load()); longest <= 0 || longest > interval {
		t.Fatalf("the idle source parked for up to %v, want within the %v to its next checkpoint", longest, interval)
	}
}

func TestCrashRecoveryAtLeastOnce(t *testing.T) {
	// Failure injection: the job crashes mid-stream; a new job restored
	// from the last checkpoint must not lose a single record (duplicates
	// are allowed — at-least-once).
	h := spstest.NewHarness(t, 2, 2)
	const total = 200
	h.Produce(t, total)

	// Phase 1: process some records, then "crash" (hard stop).
	var processed atomic.Int64
	base := h.Spec.Transform
	h.Spec.Transform = func(v []byte) ([]byte, error) {
		processed.Add(1)
		time.Sleep(500 * time.Microsecond) // keep the crash mid-stream
		return base(v)
	}
	job, err := New().RunCheckpointed(h.Spec, Checkpoint{}, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for processed.Load() < total/3 {
		time.Sleep(time.Millisecond)
	}
	cp, ok := job.LatestCheckpoint()
	if err := job.Stop(); err != nil { // the crash
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no checkpoint before the crash")
	}

	// Phase 2: restore from the checkpoint and drain until every input
	// has appeared at least once (duplicates from the replayed window
	// are expected — at-least-once, not exactly-once).
	job2, err := New().RunCheckpointed(h.Spec, cp, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var seen map[string]int
	duplicates := 0
	deadline := time.Now().Add(15 * time.Second)
	for {
		// Each CollectOutput pass re-reads the whole output topic.
		seen = map[string]int{}
		duplicates = 0
		for _, v := range h.CollectOutput(t, 1<<30, 300*time.Millisecond) {
			if seen[string(v)] > 0 {
				duplicates++
			}
			seen[string(v)]++
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
		if seen[fmt.Sprintf("r%d!scored", i)] == 0 {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("at-least-once violated: %d of %d records lost (%d duplicates)", missing, total, duplicates)
	}
}

func TestRestoreSkipsCheckpointedRecords(t *testing.T) {
	// A job restored from a completed checkpoint must not reprocess the
	// records the checkpoint covers.
	h := spstest.NewHarness(t, 1, 1)
	h.Produce(t, 10)
	job, err := New().RunCheckpointed(h.Spec, Checkpoint{}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.CollectOutput(t, 10, 10*time.Second); len(got) != 10 {
		t.Fatalf("first job delivered %d", len(got))
	}
	// Let a checkpoint cover everything.
	deadline := time.Now().Add(5 * time.Second)
	var cp Checkpoint
	for {
		var ok bool
		cp, ok = job.LatestCheckpoint()
		if ok && cp.Positions[tp("in", 0)] == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}

	var reprocessed atomic.Int64
	h.Spec.Transform = func(v []byte) ([]byte, error) {
		reprocessed.Add(1)
		return v, nil
	}
	job2, err := New().RunCheckpointed(h.Spec, cp, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := job2.Stop(); err != nil {
		t.Fatal(err)
	}
	if reprocessed.Load() != 0 {
		t.Fatalf("restored job reprocessed %d checkpointed records", reprocessed.Load())
	}
}

// TestInjectedCrashRestoreExactlyOnceAccounting drives the crash through
// the fault layer: a timed Crash event hard-stops the checkpointed job
// mid-stream, a second job restores from the latest checkpoint, and the
// downstream consumer's seen-set must account for every record exactly
// once — nothing lost, and every replayed duplicate filtered out.
func TestInjectedCrashRestoreExactlyOnceAccounting(t *testing.T) {
	h := spstest.NewHarness(t, 2, 2)
	const total = 150
	h.Produce(t, total)

	var processed atomic.Int64
	base := h.Spec.Transform
	h.Spec.Transform = func(v []byte) ([]byte, error) {
		processed.Add(1)
		time.Sleep(500 * time.Microsecond) // keep the crash mid-stream
		return base(v)
	}
	job, err := New().RunCheckpointed(h.Spec, Checkpoint{}, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	inj, err := faults.New(faults.Plan{
		Seed:   1,
		Events: []faults.Event{{Kind: faults.Crash, At: 25 * time.Millisecond, Target: "flink-job"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	crashed := make(chan struct{})
	inj.Handle(faults.Crash, func(faults.Event) {
		if err := job.Stop(); err != nil {
			t.Errorf("injected crash: %v", err)
		}
		close(crashed)
	})
	inj.Start()
	defer inj.Stop()
	giveUp := time.NewTimer(10 * time.Second)
	defer giveUp.Stop()
	select {
	case <-crashed:
	case <-giveUp.C:
		t.Fatal("crash event never fired")
	}
	if done := processed.Load(); done == 0 || done >= total {
		t.Fatalf("crash landed outside the stream: %d of %d processed", done, total)
	}
	cp, _ := job.LatestCheckpoint() // zero checkpoint (full replay) is fine too

	job2, err := New().RunCheckpointed(h.Spec, cp, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// The consumer-side seen-set: replayed duplicates are detected and
	// filtered, so unique accounting converges on exactly `total`.
	seen := map[string]int{}
	duplicates := 0
	deadline := time.Now().Add(15 * time.Second)
	for len(seen) < total && time.Now().Before(deadline) {
		seen = map[string]int{}
		duplicates = 0
		for _, v := range h.CollectOutput(t, 1<<30, 300*time.Millisecond) {
			if seen[string(v)] > 0 {
				duplicates++
			}
			seen[string(v)]++
		}
	}
	if err := job2.Stop(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		key := fmt.Sprintf("r%d!scored", i)
		if seen[key] == 0 {
			t.Fatalf("record r%d lost across the injected crash (%d duplicates seen)", i, duplicates)
		}
	}
	if len(seen) != total {
		t.Fatalf("seen-set holds %d unique records, want exactly %d", len(seen), total)
	}
}
