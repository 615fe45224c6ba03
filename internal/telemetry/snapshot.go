package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Snapshot is one point-in-time capture of a registry: every counter and
// gauge value plus a summary of every histogram. Snapshots are plain
// data — safe to retain, compare, and serialise after the run.
type Snapshot struct {
	At         time.Time                    `json:"at"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// formatValue renders a metric value, showing `_ns`-suffixed metrics as
// human-readable durations.
func formatValue(name string, v int64) string {
	if strings.HasSuffix(name, "_ns") {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%d", v)
}

// writeText renders the snapshot as sorted fixed-form text, one metric
// per line. When prev is a snapshot of the same registry taken earlier,
// counters additionally show the rate over the elapsed interval.
func (s *Snapshot) writeText(w io.Writer, prev *Snapshot) error {
	if s == nil {
		return nil
	}
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		v := s.Counters[name]
		rate := ""
		if prev != nil {
			if dt := s.At.Sub(prev.At).Seconds(); dt > 0 {
				rate = fmt.Sprintf("  (%.0f/s)", float64(v-prev.Counters[name])/dt)
			}
		}
		pr("counter %-34s %12d%s\n", name, v, rate)
	}
	for _, name := range sortedKeys(s.Gauges) {
		pr("gauge   %-34s %12s\n", name, formatValue(name, s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		pr("hist    %-34s %12d  p50 %s  p95 %s  p99 %s  max %s\n",
			name, h.Count,
			formatValue(name, h.P50), formatValue(name, h.P95),
			formatValue(name, h.P99), formatValue(name, h.Max))
	}
	return err
}

// Format renders the snapshot as text without rate annotations.
func (s *Snapshot) Format() string {
	var b strings.Builder
	_ = s.writeText(&b, nil)
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Dump starts a goroutine that writes a text snapshot of r to w every
// interval, annotated with per-interval counter rates. The returned stop
// function halts the dumper, emits one final snapshot, and waits for the
// goroutine to exit; it is safe to call once.
func Dump(w io.Writer, r *Registry, interval time.Duration) (stop func()) {
	if r == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		prev := r.Snapshot()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			snap := r.Snapshot()
			fmt.Fprintf(w, "--- telemetry @ %s ---\n", snap.At.Format("15:04:05.000"))
			_ = snap.writeText(w, prev)
			prev = snap
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
