package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("x.count")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("x.count") != c {
		t.Fatal("same name should return the same counter")
	}
	g := r.Gauge("x.level")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	h := r.Histogram("c")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metric handles")
	}
	// All of these must be safe no-ops.
	c.Add(1)
	c.Inc()
	g.Set(5)
	g.Add(1)
	h.Record(100)
	h.RecordSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if h.quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile must be zero")
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil registry snapshot = %+v, want nil", s)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose [lo, lo+width) range
	// contains it, and indices must be monotonic in the value.
	vals := []int64{0, 1, 15, 16, 17, 31, 32, 100, 1000, 12345,
		1 << 20, 1<<20 + 1, 1 << 40, math.MaxInt64}
	prevIdx := -1
	for _, v := range vals {
		idx := bucketIndex(v)
		if idx < prevIdx {
			t.Fatalf("bucketIndex not monotonic at %d", v)
		}
		prevIdx = idx
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0,%d)", v, idx, numBuckets)
		}
		lo, width := bucketBounds(idx)
		if v < lo || v >= lo+width && width > 0 {
			// width can overflow for the top octave; only check the
			// lower bound there.
			if v < lo {
				t.Fatalf("value %d outside bucket %d = [%d, %d+%d)", v, idx, lo, lo, width)
			}
		}
	}
	// The exact region must be unit-width.
	for v := int64(0); v < subCount; v++ {
		if idx := bucketIndex(v); idx != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want identity below %d", v, idx, subCount)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	h := newHistogram()
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	if want := int64(1000 * 1001 / 2); h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
	s := h.Snapshot()
	if s.Min != 1 || s.Max != 1000 {
		t.Fatalf("min/max = %d/%d, want 1/1000", s.Min, s.Max)
	}
	if s.Mean != 500 {
		t.Fatalf("mean = %d, want 500", s.Mean)
	}
	// Quantiles are bucket-accurate: within 6.25% of the true value.
	checks := []struct {
		q    float64
		want int64
	}{{0.50, 500}, {0.95, 950}, {0.99, 990}, {1, 1000}, {0, 1}}
	for _, c := range checks {
		got := h.quantile(c.q)
		if errRel := math.Abs(float64(got-c.want)) / float64(c.want); errRel > 0.0625 {
			t.Errorf("q%.2f = %d, want %d ± 6.25%%", c.q, got, c.want)
		}
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	h := newHistogram()
	h.Record(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Min != 0 || s.Max != 0 || s.Sum != 0 {
		t.Fatalf("negative record snapshot = %+v, want one zero observation", s)
	}
}

// TestHistogramConcurrentMergeExact drives many goroutines recording
// into both a shared histogram and per-goroutine shards, then merges the
// shards' buckets. Exactness means: no lost updates under concurrency,
// and the shared histogram is bucket-for-bucket the shards' sum.
// Run under -race (scripts/check.sh) this also proves the hot path is
// data-race free.
func TestHistogramConcurrentMergeExact(t *testing.T) {
	const goroutines = 8
	const perG = 5000
	shared := newHistogram()
	shards := make([]*Histogram, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		shards[g] = newHistogram()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Deterministic but varied values spanning octaves.
				v := int64((g+1)*(i+1)) % 100000
				shared.Record(v)
				shards[g].Record(v)
			}
		}(g)
	}
	wg.Wait()

	var count, sum int64
	for _, s := range shards {
		count += s.Count()
		sum += s.Sum()
	}
	if count != int64(goroutines*perG) || shared.Count() != count {
		t.Fatalf("counts: shared=%d merged=%d want=%d", shared.Count(), count, goroutines*perG)
	}
	if sum != shared.Sum() {
		t.Fatalf("sums diverge: shared=%d merged=%d", shared.Sum(), sum)
	}
	for i := 0; i < numBuckets; i++ {
		var merged int64
		for _, s := range shards {
			merged += s.buckets[i].Load()
		}
		if a := shared.buckets[i].Load(); a != merged {
			t.Fatalf("bucket %d diverges: shared=%d merged=%d", i, a, merged)
		}
	}
}

func TestSnapshotText(t *testing.T) {
	r := New()
	r.Counter("b.count").Add(42)
	r.Counter("a.count").Add(7)
	r.Gauge("q.depth").Set(3)
	r.Histogram("lat_ns").Record(int64(1500 * time.Microsecond))
	text := r.Snapshot().Format()
	for _, want := range []string{"a.count", "b.count", "q.depth", "lat_ns", "1.5ms"} {
		if !strings.Contains(text, want) {
			t.Errorf("snapshot text missing %q:\n%s", want, text)
		}
	}
	if strings.Index(text, "a.count") > strings.Index(text, "b.count") {
		t.Error("counters not sorted by name")
	}
}

func TestSnapshotRates(t *testing.T) {
	r := New()
	c := r.Counter("ev")
	prev := r.Snapshot()
	prev.At = prev.At.Add(-time.Second) // pretend one second elapsed
	c.Add(100)
	var b strings.Builder
	if err := r.Snapshot().writeText(&b, prev); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "/s)") {
		t.Fatalf("expected a rate annotation, got:\n%s", b.String())
	}
}

func TestHTTPHandler(t *testing.T) {
	r := New()
	r.Counter("requests").Add(5)
	r.Histogram("lat_ns").Record(1000)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["requests"] != 5 {
		t.Fatalf("requests = %d, want 5", snap.Counters["requests"])
	}
	if snap.Histograms["lat_ns"].Count != 1 {
		t.Fatalf("histogram count = %d, want 1", snap.Histograms["lat_ns"].Count)
	}
}

func TestDump(t *testing.T) {
	r := New()
	r.Counter("ev").Add(1)
	var mu sync.Mutex
	var b strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	})
	stop := Dump(w, r, 5*time.Millisecond)
	time.Sleep(25 * time.Millisecond)
	stop()
	mu.Lock()
	out := b.String()
	mu.Unlock()
	if !strings.Contains(out, "telemetry @") || !strings.Contains(out, "ev") {
		t.Fatalf("dumper output missing snapshot:\n%s", out)
	}
	// Disabled configurations must be inert.
	Dump(w, nil, time.Millisecond)()
	Dump(w, r, 0)()
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
