package sps

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"crayfish/internal/batching"
	"crayfish/internal/broker"
	"crayfish/internal/telemetry"
)

func TestParallelismNormalize(t *testing.T) {
	p, err := Parallelism{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p.Default != 1 || p.Source != 1 || p.Sink != 1 {
		t.Fatalf("zero value normalised to %+v", p)
	}
	p, err = Parallelism{Default: 4, Sink: 2}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p.Source != 4 || p.Default != 4 || p.Sink != 2 {
		t.Fatalf("override normalised to %+v", p)
	}
	if _, err := (Parallelism{Default: 2, Source: -1}).normalize(); err == nil {
		t.Fatal("negative parallelism accepted")
	}
}

func TestParallelismUniform(t *testing.T) {
	p, _ := Parallelism{Default: 3}.normalize()
	if !p.Uniform() {
		t.Fatal("N-N-N not uniform")
	}
	p, _ = Parallelism{Default: 3, Source: 32, Sink: 32}.normalize()
	if p.Uniform() {
		t.Fatal("32-3-32 reported uniform")
	}
}

func TestParallelismNormalizeProperty(t *testing.T) {
	f := func(d, src, sink uint8) bool {
		p, err := Parallelism{
			Default: int(d) % 32,
			Source:  int(src) % 32,
			Sink:    int(sink) % 32,
		}.normalize()
		if err != nil {
			return false
		}
		return p.Default >= 1 && p.Source >= 1 && p.Sink >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := New("storm"); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register("dup-test", func() Processor { return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("dup-test", func() Processor { return nil })
}

// TestRunningKeepsFirstError: Fail ignores nil, keeps the first error
// under the engine's and the stage's name, and closes ErrSignal once —
// a caller that asks after the failure gets a closed channel too.
func TestRunningKeepsFirstError(t *testing.T) {
	r, err := Start("eng", JobSpec{Transport: fakeTransport{}, InputTopic: "a", OutputTopic: "b", Transform: func(v []byte) ([]byte, error) { return v, nil }})
	if err != nil {
		t.Fatal(err)
	}
	early := r.ErrSignal()
	r.Fail("source", nil)
	if r.Err() != nil {
		t.Fatalf("Fail(nil) recorded %v", r.Err())
	}
	select {
	case <-early:
		t.Fatal("ErrSignal closed before any failure")
	default:
	}
	first := errDummy("first")
	r.Fail("scoring", first)
	r.Fail("sink", errDummy("second"))
	if err := r.Err(); !errors.Is(err, first) || err.Error() != "eng: scoring: first" {
		t.Fatalf("Err = %v, want the first error as \"eng: scoring: first\"", err)
	}
	for _, ch := range []<-chan struct{}{early, r.ErrSignal()} {
		select {
		case <-ch:
		default:
			t.Fatal("ErrSignal not closed after the first failure")
		}
	}
	if err := r.Stop(); !errors.Is(err, first) {
		t.Fatalf("Stop = %v, want the first error", err)
	}
}

type errDummy string

func (e errDummy) Error() string { return string(e) }

func TestJobSpecValidateDefaults(t *testing.T) {
	spec := JobSpec{}
	if err := spec.Validate(); err == nil {
		t.Fatal("empty spec accepted")
	}
	spec = JobSpec{Transport: fakeTransport{}, InputTopic: "a", OutputTopic: "b", Transform: func(v []byte) ([]byte, error) { return v, nil }}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.Group == "" {
		t.Fatal("group not defaulted")
	}
	if spec.Parallelism.Default != 1 {
		t.Fatalf("parallelism not normalised: %+v", spec.Parallelism)
	}
	spec.InputTopic = ""
	if err := spec.Validate(); err == nil {
		t.Fatal("missing input topic accepted")
	}
}

func TestNamesIncludesRegistered(t *testing.T) {
	Register("names-test", func() Processor { return nil })
	found := false
	for _, n := range Names() {
		if n == "names-test" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v", Names())
	}
	if _, err := New("names-test"); err != nil {
		t.Fatal(err)
	}
}

// TestTransformManyBoundsFanOut: a micro-batch engine hands its
// Submitter thousands of records at once. With batching on, the records
// still coalesce into full batches and come back in order; the
// submission starts no goroutine per record, and its batches flush on
// exactly par goroutines at once, never more.
func TestTransformManyBoundsFanOut(t *testing.T) {
	const maxBatch, records, par = 16, 2048, 4
	var inflight, peak, peakGoroutines, batches, coalesced atomic.Int64
	gate := make(chan struct{})
	var gateOnce sync.Once
	spec := JobSpec{
		Transport: fakeTransport{}, InputTopic: "a", OutputTopic: "b",
		Transform: func(v []byte) ([]byte, error) { return v, nil },
		BatchTransform: func(values [][]byte) ([][]byte, error) {
			n := inflight.Add(1)
			defer inflight.Add(-1)
			raise(&peak, n)
			raise(&peakGoroutines, int64(runtime.NumGoroutine()))
			// Hold the first flushes until par of them are in flight,
			// so the test sees the bound reached, not just respected.
			if n == par {
				gateOnce.Do(func() { close(gate) })
			}
			select {
			case <-gate:
			case <-time.After(5 * time.Second):
				t.Errorf("only %d flushes ever ran at once, want %d", peak.Load(), par)
				gateOnce.Do(func() { close(gate) })
			}
			batches.Add(1)
			coalesced.Add(int64(len(values)))
			return values, nil
		},
		Batching: &batching.Policy{MaxBatch: maxBatch, Linger: time.Hour},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	values := make([][]byte, records)
	for i := range values {
		values[i] = []byte(strconv.Itoa(i))
	}
	h := spec.Submitter(par)
	before := int64(runtime.NumGoroutine())
	outs, errs := h.transformMany(values)
	h.Close()
	spec.batcher.Close()
	for i := range values {
		if errs[i] != nil || string(outs[i]) != strconv.Itoa(i) {
			t.Fatalf("record %d: %q, %v", i, outs[i], errs[i])
		}
	}
	if batches.Load() != records/maxBatch || coalesced.Load() != records {
		t.Fatalf("%d records went out in %d batches, want %d full ones", coalesced.Load(), batches.Load(), records/maxBatch)
	}
	if got := peak.Load(); got > par {
		t.Fatalf("%d flushes were in flight at once, want at most par = %d", got, par)
	}
	if extra := peakGoroutines.Load() - before; extra > par-1 {
		t.Fatalf("the submission ran %d goroutines beside its caller, want at most par-1 = %d", extra, par-1)
	}
}

// TestSubmitterMetricsCountRecords: on a Metrics-enabled spec a
// submission books one sps.score.calls and one latency sample per
// record, and each sample includes the record's coalescing wait — here
// the time A's tail waited for B's to join and complete the quorum.
func TestSubmitterMetricsCountRecords(t *testing.T) {
	const maxBatch, wait = 16, 20 * time.Millisecond
	reg := telemetry.New()
	firstFlush := make(chan struct{})
	var once sync.Once
	spec := JobSpec{
		Transport: fakeTransport{}, InputTopic: "a", OutputTopic: "b",
		Transform: func(v []byte) ([]byte, error) { return v, nil },
		BatchTransform: func(values [][]byte) ([][]byte, error) {
			once.Do(func() { close(firstFlush) })
			return values, nil
		},
		Batching: &batching.Policy{MaxBatch: maxBatch, Linger: time.Hour},
		Metrics:  reg,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	a, b := spec.Submitter(1), spec.Submitter(1)
	values := make([][]byte, maxBatch+1)
	for i := range values {
		values[i] = []byte(strconv.Itoa(i))
	}
	done := make(chan []error)
	go func() {
		_, errs := a.transformMany(values)
		done <- errs
	}()
	// A flushes its full batch only after its tail has joined the open
	// batch, so from here on the tail is waiting for B.
	<-firstFlush
	time.Sleep(wait)
	if _, errs := b.transformMany([][]byte{[]byte("b")}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	for _, err := range <-done {
		if err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	b.Close()
	spec.batcher.Close()

	records := int64(len(values) + 1)
	if got := reg.Counter("sps.score.calls").Value(); got != records {
		t.Fatalf("sps.score.calls = %d, want %d (one per record)", got, records)
	}
	lat := reg.Histogram("sps.score.latency_ns")
	if lat.Count() != records {
		t.Fatalf("sps.score.latency_ns has %d samples, want %d", lat.Count(), records)
	}
	if floor := int64(len(values)) * int64(wait); lat.Sum() < floor {
		t.Fatalf("latency sum %v: A's %d records did not each book the %v their tail waited", time.Duration(lat.Sum()), len(values), wait)
	}
	if got := reg.Counter("sps.batch.quorum_flush").Value(); got != 1 {
		t.Fatalf("sps.batch.quorum_flush = %d, want the one batch B's tail completed", got)
	}
}

// raise lifts m to v if v is larger.
func raise(m *atomic.Int64, v int64) {
	for p := m.Load(); v > p && !m.CompareAndSwap(p, v); p = m.Load() {
	}
}

// fakeTransport satisfies broker.Transport for spec validation tests.
type fakeTransport struct{ broker.Transport }
