package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// FormatMetrics renders an experiment's performance statistics the way
// the metrics analyzer component reports them (§3.1).
func FormatMetrics(m Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "produced:   %d events\n", m.Produced)
	fmt.Fprintf(&b, "consumed:   %d events (%d warm-up discarded)\n", m.Consumed, m.Warmup)
	fmt.Fprintf(&b, "throughput: %.2f events/s\n", m.Throughput)
	fmt.Fprintf(&b, "latency:    mean %v ± %v\n", m.Latency.Mean.Round(time.Microsecond), m.Latency.StdDev.Round(time.Microsecond))
	fmt.Fprintf(&b, "            min %v  p50 %v  p95 %v  p99 %v  max %v\n",
		m.Latency.Min.Round(time.Microsecond),
		m.Latency.P50.Round(time.Microsecond),
		m.Latency.P95.Round(time.Microsecond),
		m.Latency.P99.Round(time.Microsecond),
		m.Latency.Max.Round(time.Microsecond))
	return b.String()
}

// WriteSamplesCSV exports per-batch measurements for external analysis:
// id, start (ns since epoch), end (ns), latency (ns).
func WriteSamplesCSV(w io.Writer, samples []Sample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "start_ns", "end_ns", "latency_ns"}); err != nil {
		return err
	}
	for _, s := range samples {
		rec := []string{
			strconv.FormatInt(s.ID, 10),
			strconv.FormatInt(s.Start.UnixNano(), 10),
			strconv.FormatInt(s.End.UnixNano(), 10),
			strconv.FormatInt(int64(s.Latency), 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
