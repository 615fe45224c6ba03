package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: values in [0, 2^subBits) land in exact
// unit-width buckets; above that, each power-of-two octave is split into
// 2^subBits sub-buckets (HDR-histogram style), bounding the relative
// quantile error at 2^-subBits (6.25%) while keeping the whole structure
// a fixed flat array of atomic counters.
const (
	subBits  = 4
	subCount = 1 << subBits
	// numBuckets covers every non-negative int64: subCount exact
	// buckets plus one block per exponent 4..62 (the top set bit of
	// math.MaxInt64 is bit 62).
	numBuckets = subCount + (63-subBits)*subCount
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // position of the top set bit, >= subBits
	sub := (u >> (uint(exp) - subBits)) & (subCount - 1)
	return (exp-subBits)*subCount + subCount + int(sub)
}

// bucketBounds returns the inclusive lower bound and the width of a
// bucket, the inverse of bucketIndex.
func bucketBounds(idx int) (lo, width int64) {
	if idx < subCount {
		return int64(idx), 1
	}
	block := idx/subCount - 1
	sub := idx % subCount
	exp := uint(block + subBits)
	width = int64(1) << (exp - subBits)
	lo = int64(1)<<exp + int64(sub)*width
	return lo, width
}

// Histogram is a lock-free streaming histogram with log-spaced buckets.
// Record is wait-free (plain atomic adds on the bucket array, count, and
// sum; bounded CAS loops for min/max); Merge and Snapshot read the same
// atomics, so recording never blocks observation. Negative values clamp
// to zero. Create instances with newHistogram (or through a Registry);
// a nil Histogram silently discards recordings.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // math.MaxInt64 until the first Record
	max     atomic.Int64 // -1 until the first Record
	buckets [numBuckets]atomic.Int64
}

// newHistogram creates an empty histogram.
func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(-1)
	return h
}

// Record adds one observation. Negative values count as zero.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// RecordSince records the elapsed nanoseconds since start.
func (h *Histogram) RecordSince(start time.Time) {
	if h == nil {
		return
	}
	h.Record(int64(time.Since(start)))
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the exact sum of recorded observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// quantile estimates the q-quantile (q in [0,1]) from the bucket counts,
// accurate to the bucket width (≤ 6.25% relative error). It returns 0
// for an empty histogram.
func (h *Histogram) quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			lo, width := bucketBounds(i)
			mid := lo + width/2
			// Clamp to the observed extremes so tiny histograms
			// report exact values.
			if min := h.min.Load(); mid < min {
				mid = min
			}
			if max := h.max.Load(); mid > max {
				mid = max
			}
			return mid
		}
	}
	return h.max.Load()
}

// HistogramSnapshot is one histogram's state at a point in time. All
// values share the histogram's unit (nanoseconds for `_ns` metrics).
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	Mean  int64 `json:"mean"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
}

// Snapshot summarises the histogram. Count and Sum are exact; quantiles
// carry the bucket-width error. A nil histogram returns the zero
// snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		P50:   h.quantile(0.50),
		P95:   h.quantile(0.95),
		P99:   h.quantile(0.99),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
		s.Mean = s.Sum / s.Count
	}
	return s
}
