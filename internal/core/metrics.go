package core

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// LatencyStats summarises a latency distribution.
type LatencyStats struct {
	Mean   time.Duration
	StdDev time.Duration
	Min    time.Duration
	Max    time.Duration
	P50    time.Duration
	P90    time.Duration
	P95    time.Duration
	P99    time.Duration
}

// Metrics is the analyzer's output for one experiment run.
type Metrics struct {
	// Produced and Consumed are event counts over the whole run.
	Produced int
	Consumed int
	// Throughput is scored events per second over the measurement
	// window (post-warmup).
	Throughput float64
	// Latency summarises post-warmup end-to-end latencies.
	Latency LatencyStats
	// Warmup is the number of discarded leading samples.
	Warmup int
}

// analyze computes metrics from samples, discarding the leading
// warmupFraction (the paper discards the first 25%). The fraction must
// lie in [0,1): discarding every sample leaves nothing to measure, so a
// fraction of 1 or more is a configuration error, not a request for a
// one-sample window.
func analyze(samples []Sample, produced int, warmupFraction float64) (Metrics, error) {
	m := Metrics{Produced: produced, Consumed: len(samples)}
	if warmupFraction < 0 || warmupFraction >= 1 {
		return m, fmt.Errorf("core: warmup fraction %v out of [0,1)", warmupFraction)
	}
	if len(samples) == 0 {
		return m, fmt.Errorf("core: no samples to analyze")
	}
	ordered := append([]Sample(nil), samples...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].End.Before(ordered[j].End) })
	warm := int(float64(len(ordered)) * warmupFraction)
	if warm >= len(ordered) {
		// Unreachable for fractions in [0,1), but guard against float
		// rounding ever producing an empty measurement window.
		return m, fmt.Errorf("core: warmup fraction %v discards all %d samples", warmupFraction, len(ordered))
	}
	m.Warmup = warm
	window := ordered[warm:]

	// Throughput: events per second across the measurement window. The
	// window opens at the earliest production time of its samples (not
	// the first append time) so engines that deliver in batched bursts
	// — micro-batch sinks collapse many records onto one LogAppendTime
	// — are still measured over the real period the events covered.
	start := window[0].Start
	for _, s := range window {
		if s.Start.Before(start) {
			start = s.Start
		}
	}
	span := window[len(window)-1].End.Sub(start)
	if span <= 0 {
		span = time.Nanosecond
	}
	m.Throughput = float64(len(window)) / span.Seconds()

	m.Latency = latencyStats(window)
	return m, nil
}

func latencyStats(samples []Sample) LatencyStats {
	lat := make([]time.Duration, len(samples))
	var sum float64
	for i, s := range samples {
		lat[i] = s.Latency
		sum += float64(s.Latency)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	mean := sum / float64(len(lat))
	var sq float64
	for _, l := range lat {
		d := float64(l) - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(lat)))
	pick := func(q float64) time.Duration {
		idx := int(q * float64(len(lat)-1))
		return lat[idx]
	}
	return LatencyStats{
		Mean:   time.Duration(mean),
		StdDev: time.Duration(std),
		Min:    lat[0],
		Max:    lat[len(lat)-1],
		P50:    pick(0.50),
		P90:    pick(0.90),
		P95:    pick(0.95),
		P99:    pick(0.99),
	}
}

// timelinePoint aggregates latency over one time bucket, for burst plots.
type timelinePoint struct {
	Offset  time.Duration // since the first sample's end time
	Count   int
	MeanLat time.Duration
}

// timeline buckets samples by end time into fixed-width bins.
func timeline(samples []Sample, bin time.Duration) []timelinePoint {
	if len(samples) == 0 || bin <= 0 {
		return nil
	}
	ordered := append([]Sample(nil), samples...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].End.Before(ordered[j].End) })
	t0 := ordered[0].End
	var out []timelinePoint
	idx := -1
	var acc float64
	for _, s := range ordered {
		b := int(s.End.Sub(t0) / bin)
		for b > idx {
			if idx >= 0 && out[idx].Count > 0 {
				out[idx].MeanLat = time.Duration(acc / float64(out[idx].Count))
			}
			idx++
			out = append(out, timelinePoint{Offset: time.Duration(idx) * bin})
			acc = 0
		}
		out[idx].Count++
		acc += float64(s.Latency)
	}
	if idx >= 0 && out[idx].Count > 0 {
		out[idx].MeanLat = time.Duration(acc / float64(out[idx].Count))
	}
	return out
}

// RecoveryTime measures how long after a burst ends the SUT's latency
// returns to steady state (§5.1.4): it finds the steady-state latency as
// the median of bins strictly before burstStart, then scans bins after
// burstEnd for the first one whose mean latency falls back below
// tolerance × steady and stays there for two consecutive bins.
// It returns an error when the latency never stabilises within the
// observed window — itself a meaningful experimental outcome.
func RecoveryTime(samples []Sample, runStart time.Time, burstStart, burstEnd time.Duration, bin time.Duration, tolerance float64) (time.Duration, error) {
	if tolerance <= 0 {
		tolerance = 2
	}
	points := timeline(samples, bin)
	if len(points) == 0 {
		return 0, fmt.Errorf("core: no samples for recovery analysis")
	}
	// Re-anchor offsets from first-sample time to runStart.
	ordered := append([]Sample(nil), samples...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].End.Before(ordered[j].End) })
	anchor := ordered[0].End.Sub(runStart)

	var steady []float64
	for _, p := range points {
		if p.Count == 0 {
			continue
		}
		if anchor+p.Offset < burstStart {
			steady = append(steady, float64(p.MeanLat))
		}
	}
	if len(steady) == 0 {
		return 0, fmt.Errorf("core: no pre-burst samples to establish steady state")
	}
	sort.Float64s(steady)
	steadyLat := steady[len(steady)/2]
	threshold := steadyLat * tolerance

	consecutive := 0
	for _, p := range points {
		at := anchor + p.Offset
		if at < burstEnd || p.Count == 0 {
			consecutive = 0
			continue
		}
		if float64(p.MeanLat) <= threshold {
			consecutive++
			if consecutive >= 2 {
				// Recovery completes at the first bin of the
				// stable pair.
				rec := at - bin - burstEnd
				if rec < 0 {
					rec = 0
				}
				return rec, nil
			}
		} else {
			consecutive = 0
		}
	}
	return 0, fmt.Errorf("core: latency did not re-stabilise within the observed window")
}
