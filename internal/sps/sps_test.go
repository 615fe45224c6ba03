package sps

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"crayfish/internal/batching"
	"crayfish/internal/broker"
)

func TestParallelismNormalize(t *testing.T) {
	p, err := Parallelism{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p.Default != 1 || p.Source != 1 || p.Score != 1 || p.Sink != 1 {
		t.Fatalf("zero value normalised to %+v", p)
	}
	p, err = Parallelism{Default: 4, Score: 2}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p.Source != 4 || p.Score != 2 || p.Sink != 4 {
		t.Fatalf("override normalised to %+v", p)
	}
	if _, err := (Parallelism{Default: 2, Score: -1}).normalize(); err == nil {
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
	f := func(d, src, score, sink uint8) bool {
		p, err := Parallelism{
			Default: int(d) % 32,
			Source:  int(src) % 32,
			Score:   int(score) % 32,
			Sink:    int(sink) % 32,
		}.normalize()
		if err != nil {
			return false
		}
		return p.Default >= 1 && p.Source >= 1 && p.Score >= 1 && p.Sink >= 1
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

func TestErrTrackerKeepsFirst(t *testing.T) {
	var e ErrTracker
	if e.Get() != nil {
		t.Fatal("zero tracker not nil")
	}
	e.Set(nil)
	if e.Get() != nil {
		t.Fatal("Set(nil) recorded")
	}
	first := errDummy("first")
	e.Set(first)
	e.Set(errDummy("second"))
	if e.Get() != first {
		t.Fatalf("Get = %v", e.Get())
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

// TestTransformManyBoundsFanOut: a micro-batch engine hands
// TransformMany thousands of records at once. With batching on, the
// records still coalesce into full batches and come back in order, and
// TransformMany runs them on at most MaxBatch goroutines, not one each.
func TestTransformManyBoundsFanOut(t *testing.T) {
	const maxBatch, records = 16, 2048
	var peak, batches, coalesced atomic.Int64
	spec := JobSpec{
		Transport: fakeTransport{}, InputTopic: "a", OutputTopic: "b",
		Transform: func(v []byte) ([]byte, error) { return v, nil },
		BatchTransform: func(values [][]byte) ([][]byte, error) {
			// Count the goroutines TransformMany started that are alive
			// now. (runtime.NumGoroutine would also count the batcher's
			// linger watchers, which exit when the scheduler gets to them.)
			buf := make([]byte, 1<<20)
			stacks := buf[:runtime.Stack(buf, true)]
			n := int64(bytes.Count(stacks, []byte("created by crayfish/internal/sps.(*JobSpec).TransformMany")))
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
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
	outs, errs := spec.TransformMany(values)
	spec.CloseBatching()
	for i := range values {
		if errs[i] != nil || string(outs[i]) != strconv.Itoa(i) {
			t.Fatalf("record %d: %q, %v", i, outs[i], errs[i])
		}
	}
	if batches.Load() != records/maxBatch || coalesced.Load() != records {
		t.Fatalf("%d records went out in %d batches, want %d full ones", coalesced.Load(), batches.Load(), records/maxBatch)
	}
	if got := peak.Load(); got == 0 || got > maxBatch {
		t.Fatalf("TransformMany ran %d records on %d goroutines at once, want 1 to %d", records, got, maxBatch)
	}
}

// fakeTransport satisfies broker.Transport for spec validation tests.
type fakeTransport struct{ broker.Transport }
