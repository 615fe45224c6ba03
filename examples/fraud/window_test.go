package main

import (
	"testing"
	"testing/quick"
	"time"
)

func sumWindow(t *testing.T, size, lateness time.Duration) *Tumbling[int, int] {
	t.Helper()
	w, err := NewTumbling(size, lateness, func() int { return 0 }, func(acc, v int) int { return acc + v })
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func at(sec int64) time.Time { return time.Unix(sec, 0) }

func TestTumblingBasic(t *testing.T) {
	w := sumWindow(t, time.Second, 0)
	w.Add(at(0), 1)
	w.Add(at(0).Add(500*time.Millisecond), 2)
	w.Add(at(1), 10)
	if w.Open() != 2 {
		t.Fatalf("open windows %d", w.Open())
	}
	out := w.Watermark(at(1))
	if len(out) != 1 || out[0].Value != 3 || out[0].Count != 2 {
		t.Fatalf("first close %+v", out)
	}
	if !out[0].Start.Equal(at(0)) || !out[0].End.Equal(at(1)) {
		t.Fatalf("bounds %v-%v", out[0].Start, out[0].End)
	}
	out = w.Watermark(at(2))
	if len(out) != 1 || out[0].Value != 10 {
		t.Fatalf("second close %+v", out)
	}
}

func TestTumblingLateness(t *testing.T) {
	w := sumWindow(t, time.Second, 500*time.Millisecond)
	w.Add(at(0), 1)
	// Watermark at window end: lateness keeps it open.
	if out := w.Watermark(at(1)); len(out) != 0 {
		t.Fatalf("window closed before lateness expired: %+v", out)
	}
	// A late event inside the lateness horizon still lands.
	if !w.Add(at(0).Add(900*time.Millisecond), 5) {
		t.Fatal("in-horizon late event dropped")
	}
	out := w.Watermark(at(1).Add(500 * time.Millisecond))
	if len(out) != 1 || out[0].Value != 6 {
		t.Fatalf("close with late event: %+v", out)
	}
	// Beyond the horizon the event is dropped-late.
	if w.Add(at(0), 7) {
		t.Fatal("too-late event accepted")
	}
}

func TestTumblingWatermarkMonotone(t *testing.T) {
	w := sumWindow(t, time.Second, 0)
	w.Add(at(0), 1)
	if out := w.Watermark(at(5)); len(out) != 1 {
		t.Fatalf("close %+v", out)
	}
	// A regressing watermark is ignored.
	w.Add(at(10), 2)
	if out := w.Watermark(at(3)); out != nil {
		t.Fatalf("regressed watermark emitted %+v", out)
	}
	if out := w.Watermark(at(11)); len(out) != 1 || out[0].Value != 2 {
		t.Fatalf("after regression %+v", out)
	}
}

func TestTumblingFlush(t *testing.T) {
	w := sumWindow(t, time.Second, 0)
	w.Add(at(0), 1)
	w.Add(at(3), 2)
	out := w.Flush()
	if len(out) != 2 || out[0].Value != 1 || out[1].Value != 2 {
		t.Fatalf("flush %+v", out)
	}
	if w.Open() != 0 {
		t.Fatal("flush left windows open")
	}
}

func TestTumblingValidation(t *testing.T) {
	if _, err := NewTumbling[int, int](0, 0, func() int { return 0 }, func(a, v int) int { return a }); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewTumbling[int, int](time.Second, -1, func() int { return 0 }, func(a, v int) int { return a }); err == nil {
		t.Fatal("negative lateness accepted")
	}
	if _, err := NewTumbling[int, int](time.Second, 0, nil, nil); err == nil {
		t.Fatal("nil funcs accepted")
	}
}

func TestTumblingPreEpoch(t *testing.T) {
	w := sumWindow(t, time.Second, 0)
	w.Add(time.Unix(-1, 500_000_000), 4) // bucket [-1s, 0)
	out := w.Watermark(at(0))
	if len(out) != 1 || out[0].Value != 4 {
		t.Fatalf("pre-epoch close %+v", out)
	}
	if !out[0].Start.Equal(time.Unix(-1, 0)) {
		t.Fatalf("pre-epoch start %v", out[0].Start)
	}
}

func TestTumblingCountConservationProperty(t *testing.T) {
	// Every accepted event appears in exactly one window; totals add up.
	f := func(offsets []uint16) bool {
		w, err := NewTumbling(time.Second, 0, func() int { return 0 }, func(acc, v int) int { return acc + v })
		if err != nil {
			return false
		}
		accepted := 0
		for _, off := range offsets {
			ts := time.Unix(0, int64(off)*int64(10*time.Millisecond))
			if w.Add(ts, 1) {
				accepted++
			}
		}
		total := 0
		for _, r := range w.Flush() {
			if r.Count != r.Value { // fold adds 1 per event
				return false
			}
			total += r.Count
		}
		return total == accepted && accepted == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
