package core

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestFormatMetrics(t *testing.T) {
	m := Metrics{
		Produced: 100, Consumed: 98, Warmup: 24, Throughput: 123.45,
		Latency: LatencyStats{
			Mean: 5 * time.Millisecond, StdDev: time.Millisecond,
			Min: time.Millisecond, Max: 9 * time.Millisecond,
			P50: 5 * time.Millisecond, P95: 8 * time.Millisecond, P99: 9 * time.Millisecond,
		},
	}
	s := FormatMetrics(m)
	for _, want := range []string{"123.45 events/s", "98 events", "p99 9ms", "± 1ms"} {
		if !strings.Contains(s, want) {
			t.Fatalf("FormatMetrics missing %q:\n%s", want, s)
		}
	}
}

func TestSamplesCSVRoundTripProperty(t *testing.T) {
	f := func(ids []int64) bool {
		samples := make([]Sample, len(ids))
		for i, id := range ids {
			start := time.Unix(0, int64(i)*1000)
			samples[i] = Sample{
				ID:      id,
				Start:   start,
				End:     start.Add(time.Duration(i+1) * time.Microsecond),
				Latency: time.Duration(i+1) * time.Microsecond,
			}
		}
		var buf bytes.Buffer
		if err := WriteSamplesCSV(&buf, samples); err != nil {
			return false
		}
		rows, err := csv.NewReader(&buf).ReadAll()
		if err != nil || len(rows) != len(samples)+1 ||
			strings.Join(rows[0], ",") != "id,start_ns,end_ns,latency_ns" {
			return false
		}
		for i, s := range samples {
			want := []int64{s.ID, s.Start.UnixNano(), s.End.UnixNano(), int64(s.Latency)}
			for j, field := range rows[i+1] {
				if v, err := strconv.ParseInt(field, 10, 64); err != nil || v != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
