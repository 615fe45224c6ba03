package core

import (
	"testing"
	"time"
)

// mkSamples builds n samples at equal spacing with the given latency.
func mkSamples(n int, spacing, latency time.Duration) []Sample {
	t0 := time.Unix(100, 0)
	out := make([]Sample, n)
	for i := range out {
		end := t0.Add(time.Duration(i) * spacing)
		out[i] = Sample{ID: int64(i), Start: end.Add(-latency), End: end, Latency: latency}
	}
	return out
}

func TestAnalyzeThroughputAndLatency(t *testing.T) {
	// 101 samples spaced 10ms: 100 events/s.
	samples := mkSamples(101, 10*time.Millisecond, 5*time.Millisecond)
	m, err := analyze(samples, 101, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	if m.Produced != 101 || m.Consumed != 101 {
		t.Fatalf("counts %d/%d", m.Produced, m.Consumed)
	}
	if m.Throughput < 95 || m.Throughput > 105 {
		t.Fatalf("throughput %v, want ≈100", m.Throughput)
	}
	if m.Latency.Mean != 5*time.Millisecond || m.Latency.P99 != 5*time.Millisecond {
		t.Fatalf("latency %+v", m.Latency)
	}
	if m.Latency.StdDev != 0 {
		t.Fatalf("stddev %v, want 0", m.Latency.StdDev)
	}
}

func TestAnalyzeWarmupDiscard(t *testing.T) {
	// First quarter has huge latency; the analyzer must drop it.
	samples := mkSamples(100, time.Millisecond, 2*time.Millisecond)
	for i := 0; i < 25; i++ {
		samples[i].Latency = time.Second
	}
	m, err := analyze(samples, 100, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if m.Warmup != 25 {
		t.Fatalf("warmup %d", m.Warmup)
	}
	if m.Latency.Max != 2*time.Millisecond {
		t.Fatalf("warmup samples leaked: max %v", m.Latency.Max)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if _, err := analyze(nil, 0, 0.25); err == nil {
		t.Fatal("empty analysis succeeded")
	}
}

func TestAnalyzeWarmupFractionValidation(t *testing.T) {
	samples := mkSamples(10, time.Millisecond, time.Millisecond)
	cases := []struct {
		name     string
		samples  []Sample
		fraction float64
		wantErr  bool
		warmup   int
	}{
		{name: "all-warmup fraction 1", samples: samples, fraction: 1, wantErr: true},
		{name: "fraction above 1", samples: samples, fraction: 1.5, wantErr: true},
		{name: "negative fraction", samples: samples, fraction: -0.1, wantErr: true},
		{name: "empty window and bad fraction", samples: nil, fraction: 1, wantErr: true},
		{name: "near-1 fraction keeps a sample", samples: samples, fraction: 0.95, warmup: 9},
		{name: "zero fraction keeps everything", samples: samples, fraction: 0, warmup: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := analyze(tc.samples, len(tc.samples), tc.fraction)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Analyze(fraction=%v) succeeded, want error", tc.fraction)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if m.Warmup != tc.warmup {
				t.Fatalf("warmup %d, want %d", m.Warmup, tc.warmup)
			}
			if m.Consumed-m.Warmup < 1 {
				t.Fatalf("empty measurement window: %+v", m)
			}
		})
	}
}

func TestAnalyzeSingleSample(t *testing.T) {
	m, err := analyze(mkSamples(1, time.Millisecond, time.Millisecond), 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if m.Consumed != 1 || m.Latency.Mean != time.Millisecond {
		t.Fatalf("single sample: %+v", m)
	}
}

func TestLatencyPercentilesOrdered(t *testing.T) {
	samples := make([]Sample, 100)
	t0 := time.Unix(0, 0)
	for i := range samples {
		lat := time.Duration(i+1) * time.Millisecond
		end := t0.Add(time.Duration(i) * time.Millisecond)
		samples[i] = Sample{End: end, Latency: lat}
	}
	m, err := analyze(samples, 100, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	l := m.Latency
	if !(l.Min <= l.P50 && l.P50 <= l.P95 && l.P95 <= l.P99 && l.P99 <= l.Max) {
		t.Fatalf("percentiles unordered: %+v", l)
	}
	if l.P50 < 45*time.Millisecond || l.P50 > 55*time.Millisecond {
		t.Fatalf("p50 %v", l.P50)
	}
}

func TestTimelineBuckets(t *testing.T) {
	samples := mkSamples(30, 10*time.Millisecond, time.Millisecond)
	points := timeline(samples, 100*time.Millisecond)
	if len(points) != 3 {
		t.Fatalf("bins %d, want 3", len(points))
	}
	total := 0
	for _, p := range points {
		total += p.Count
		if p.Count > 0 && p.MeanLat != time.Millisecond {
			t.Fatalf("bin latency %v", p.MeanLat)
		}
	}
	if total != 30 {
		t.Fatalf("binned %d samples", total)
	}
	if timeline(nil, time.Second) != nil {
		t.Fatal("empty timeline not nil")
	}
	if timeline(samples, 0) != nil {
		t.Fatal("zero bin accepted")
	}
}

func TestRecoveryTime(t *testing.T) {
	// Steady 1ms latency, burst pushes it to 100ms from t=100ms to
	// t=200ms, decays back by t=260ms.
	runStart := time.Unix(100, 0)
	var samples []Sample
	for i := 0; i < 50; i++ {
		end := runStart.Add(time.Duration(i) * 10 * time.Millisecond)
		lat := time.Millisecond
		at := end.Sub(runStart)
		if at >= 100*time.Millisecond && at < 260*time.Millisecond {
			lat = 100 * time.Millisecond
		}
		samples = append(samples, Sample{End: end, Latency: lat})
	}
	rec, err := RecoveryTime(samples, runStart, 100*time.Millisecond, 200*time.Millisecond, 20*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rec < 40*time.Millisecond || rec > 120*time.Millisecond {
		t.Fatalf("recovery %v, want ≈60-80ms", rec)
	}
}

func TestRecoveryTimeNeverStabilises(t *testing.T) {
	runStart := time.Unix(100, 0)
	var samples []Sample
	for i := 0; i < 30; i++ {
		end := runStart.Add(time.Duration(i) * 10 * time.Millisecond)
		lat := time.Millisecond
		if i >= 10 {
			lat = time.Second // stuck high after the burst
		}
		samples = append(samples, Sample{End: end, Latency: lat})
	}
	if _, err := RecoveryTime(samples, runStart, 100*time.Millisecond, 150*time.Millisecond, 20*time.Millisecond, 2); err == nil {
		t.Fatal("non-recovery not reported")
	}
}

func TestRecoveryTimeNeedsPreBurstSamples(t *testing.T) {
	runStart := time.Unix(100, 0)
	samples := []Sample{{End: runStart.Add(time.Second), Latency: time.Millisecond}}
	if _, err := RecoveryTime(samples, runStart, 10*time.Millisecond, 20*time.Millisecond, 10*time.Millisecond, 2); err == nil {
		t.Fatal("missing steady state not reported")
	}
	if _, err := RecoveryTime(nil, runStart, 0, 0, time.Millisecond, 2); err == nil {
		t.Fatal("empty samples not reported")
	}
}
