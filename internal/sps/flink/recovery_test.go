package flink

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"crayfish/internal/faults"
	"crayfish/internal/sps/spstest"
)

// A flink job keeps no checkpoint: its sources read every assigned
// partition from offset 0, so a job started after a crash replays the
// input topic from its start. Nothing processed before the crash is lost;
// the replayed prefix arrives twice, and the consumer's seen-set is what
// turns at-least-once delivery into exactly-once accounting.

// slowScoring makes every transform take 500 µs, so that a crash lands
// mid-stream; processed counts the calls.
func slowScoring(h *spstest.Harness, processed *atomic.Int64) {
	base := h.Spec.Transform
	h.Spec.Transform = func(v []byte) ([]byte, error) {
		processed.Add(1)
		time.Sleep(500 * time.Microsecond)
		return base(v)
	}
}

// seenOutput re-reads the output topic until it holds every input once
// or the deadline passes, and returns each value's delivery count.
func seenOutput(t *testing.T, h *spstest.Harness, total int) (seen map[string]int, duplicates int) {
	deadline := time.Now().Add(15 * time.Second)
	for len(seen) < total && time.Now().Before(deadline) {
		seen, duplicates = map[string]int{}, 0
		for _, v := range h.CollectOutput(t, 1<<30, 300*time.Millisecond) {
			if seen[string(v)] > 0 {
				duplicates++
			}
			seen[string(v)]++
		}
	}
	return seen, duplicates
}

// TestCrashRecoveryAtLeastOnce: a job hard-stopped mid-stream and a new
// job started after it deliver every input record at least once.
func TestCrashRecoveryAtLeastOnce(t *testing.T) {
	h := spstest.NewHarness(t, 2, 2)
	const total = 200
	h.Produce(t, total)
	var processed atomic.Int64
	slowScoring(h, &processed)
	job, err := New().Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	for processed.Load() < total/3 {
		time.Sleep(time.Millisecond)
	}
	if err := job.Stop(); err != nil { // the crash
		t.Fatal(err)
	}
	job2, err := New().Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	seen, duplicates := seenOutput(t, h, total)
	if err := job2.Stop(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if seen[fmt.Sprintf("r%d!scored", i)] == 0 {
			t.Fatalf("at-least-once violated: r%d lost (%d duplicates)", i, duplicates)
		}
	}
}

// TestInjectedCrashRestoreExactlyOnceAccounting drives the crash through
// the fault layer: a timed Crash event hard-stops the job mid-stream, a
// second job starts after it, and the downstream seen-set must account
// for every record exactly once — nothing lost, every replayed duplicate
// filtered out.
func TestInjectedCrashRestoreExactlyOnceAccounting(t *testing.T) {
	h := spstest.NewHarness(t, 2, 2)
	const total = 150
	h.Produce(t, total)
	var processed atomic.Int64
	slowScoring(h, &processed)
	job, err := New().Run(h.Spec)
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
	job2, err := New().Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	seen, duplicates := seenOutput(t, h, total)
	if err := job2.Stop(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if seen[fmt.Sprintf("r%d!scored", i)] == 0 {
			t.Fatalf("record r%d lost across the injected crash (%d duplicates seen)", i, duplicates)
		}
	}
	if len(seen) != total {
		t.Fatalf("seen-set holds %d unique records, want exactly %d", len(seen), total)
	}
}
