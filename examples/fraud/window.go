// Event-time window aggregation — the streaming capability the paper
// counts among stream processors' native strengths over serving
// frameworks (§1: "online data transformations, aggregation, and
// windowing"). Tumbling windows with watermark-driven emission and
// bounded lateness, the dataflow-model semantics the paper's engines
// share (§1 cites the Dataflow model).

package main

import (
	"fmt"
	"sort"
	"time"
)

// Result is one closed window's aggregate.
type Result[A any] struct {
	// Start and End delimit the window [Start, End).
	Start, End time.Time
	// Value is the final accumulator.
	Value A
	// Count is how many events the window absorbed.
	Count int
}

// Tumbling aggregates events into fixed, non-overlapping event-time
// windows. Events are assigned by their event timestamp; windows close
// when the watermark passes their end plus the allowed lateness. The
// zero value is not usable; construct with NewTumbling.
type Tumbling[T, A any] struct {
	size      time.Duration
	lateness  time.Duration
	newAcc    func() A
	fold      func(acc A, v T) A
	windows   map[int64]*state[A]
	watermark time.Time
	hasWM     bool
}

type state[A any] struct {
	acc   A
	count int
}

// NewTumbling creates a tumbling-window aggregator. size is the window
// width; lateness is how long past a window's end events are still
// accepted (0 = none); newAcc builds an empty accumulator and fold adds
// one event to it.
func NewTumbling[T, A any](size, lateness time.Duration, newAcc func() A, fold func(acc A, v T) A) (*Tumbling[T, A], error) {
	if size <= 0 {
		return nil, fmt.Errorf("window: size must be positive, got %v", size)
	}
	if lateness < 0 {
		return nil, fmt.Errorf("window: lateness must be non-negative, got %v", lateness)
	}
	if newAcc == nil || fold == nil {
		return nil, fmt.Errorf("window: newAcc and fold are required")
	}
	return &Tumbling[T, A]{
		size:     size,
		lateness: lateness,
		newAcc:   newAcc,
		fold:     fold,
		windows:  make(map[int64]*state[A]),
	}, nil
}

// bucket returns the window index containing ts.
func (w *Tumbling[T, A]) bucket(ts time.Time) int64 {
	b := ts.UnixNano() / int64(w.size)
	if ts.UnixNano() < 0 && ts.UnixNano()%int64(w.size) != 0 {
		b-- // floor division for pre-epoch timestamps
	}
	return b
}

// Add assigns one event to its window. Events whose window already closed
// (watermark beyond end+lateness) are dropped and return false.
func (w *Tumbling[T, A]) Add(ts time.Time, v T) bool {
	b := w.bucket(ts)
	if w.hasWM {
		end := time.Unix(0, (b+1)*int64(w.size))
		if !w.watermark.Before(end.Add(w.lateness)) {
			return false
		}
	}
	st, ok := w.windows[b]
	if !ok {
		st = &state[A]{acc: w.newAcc()}
		w.windows[b] = st
	}
	st.acc = w.fold(st.acc, v)
	st.count++
	return true
}

// Watermark advances event time and returns the windows it closes, in
// start order. A window closes when watermark ≥ end + lateness.
// Watermarks never move backwards; a regressing call is ignored.
func (w *Tumbling[T, A]) Watermark(ts time.Time) []Result[A] {
	if w.hasWM && !ts.After(w.watermark) {
		return nil
	}
	w.watermark = ts
	w.hasWM = true
	var out []Result[A]
	for b, st := range w.windows {
		end := time.Unix(0, (b+1)*int64(w.size))
		if !ts.Before(end.Add(w.lateness)) {
			out = append(out, Result[A]{
				Start: time.Unix(0, b*int64(w.size)),
				End:   end,
				Value: st.acc,
				Count: st.count,
			})
			delete(w.windows, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Flush closes every open window regardless of the watermark (end of
// stream).
func (w *Tumbling[T, A]) Flush() []Result[A] {
	var out []Result[A]
	for b, st := range w.windows {
		out = append(out, Result[A]{
			Start: time.Unix(0, b*int64(w.size)),
			End:   time.Unix(0, (b+1)*int64(w.size)),
			Value: st.acc,
			Count: st.count,
		})
		delete(w.windows, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Open reports how many windows are currently buffering events.
func (w *Tumbling[T, A]) Open() int { return len(w.windows) }
