// Package spstest provides a conformance suite that every stream-processor
// engine must pass: records flow from the input topic through the
// transform to the output topic, parallel configurations work, transform
// failures surface through Job.Err, and Stop drains cleanly.
package spstest

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/sps"
	"crayfish/internal/testutil/leakcheck"
)

// Harness wires a fresh broker with input/output topics.
type Harness struct {
	Broker *broker.Broker
	Spec   sps.JobSpec
}

// NewHarness builds a broker with the given partition counts and a job
// spec using an uppercase-ish transform (appends "!scored").
func NewHarness(t *testing.T, inParts, outParts int) *Harness {
	t.Helper()
	b := broker.New(broker.DefaultConfig())
	if err := b.CreateTopic("in", inParts); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("out", outParts); err != nil {
		t.Fatal(err)
	}
	return &Harness{
		Broker: b,
		Spec: sps.JobSpec{
			Transport:   b,
			InputTopic:  "in",
			OutputTopic: "out",
			Group:       "test-group",
			Transform: func(v []byte) ([]byte, error) {
				return append(append([]byte(nil), v...), []byte("!scored")...), nil
			},
		},
	}
}

// Produce writes n records "r0".."rn-1" round-robin to the input topic.
func (h *Harness) Produce(t *testing.T, n int) {
	t.Helper()
	p, err := broker.NewProducer(h.Broker, "in")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := p.Send(nil, []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
}

// CollectOutput reads the output topic until n records arrive or the
// deadline passes, returning the values sorted. It parks at the broker
// between reads rather than busy-polling.
func (h *Harness) CollectOutput(t *testing.T, n int, deadline time.Duration) [][]byte {
	t.Helper()
	c, err := broker.NewAssignedConsumer(h.Broker, "out")
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	stop := time.Now().Add(deadline)
	for len(out) < n {
		left := time.Until(stop)
		if left <= 0 {
			break
		}
		recs, err := c.Poll(64, left, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			out = append(out, r.Value)
		}
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

// RunConformance exercises an engine factory against the full suite.
func RunConformance(t *testing.T, factory func() sps.Processor) {
	t.Helper()
	t.Run("EndToEnd", func(t *testing.T) { testEndToEnd(t, factory(), 1) })
	t.Run("Parallel4", func(t *testing.T) { testEndToEnd(t, factory(), 4) })
	t.Run("ParallelBeyondPartitions", func(t *testing.T) { testEndToEnd(t, factory(), 9) })
	t.Run("TransformErrorSurfaces", func(t *testing.T) { testTransformError(t, factory()) })
	t.Run("StopIdempotent", func(t *testing.T) { testStopIdempotent(t, factory()) })
	t.Run("SpecValidation", func(t *testing.T) { testSpecValidation(t, factory()) })
	t.Run("ContinuousFlow", func(t *testing.T) { testContinuousFlow(t, factory()) })
	t.Run("StopWhileParked", func(t *testing.T) { testStopWhileParked(t, factory()) })
	t.Run("StartFailure", func(t *testing.T) { testStartFailure(t, factory) })
}

// testStartFailure: a job whose output topic is missing must fail to
// start and leave nothing running, under uniform and per-operator
// parallelism alike — the caller gets no Job, so nobody could Stop
// whatever a half-built topology had already launched.
func testStartFailure(t *testing.T, factory func() sps.Processor) {
	for _, p := range []sps.Parallelism{{Default: 2}, {Default: 1, Source: 2, Sink: 2}} {
		h := NewHarness(t, 2, 2)
		h.Spec.OutputTopic = "missing"
		h.Spec.Parallelism = p
		proc := factory()
		if job, err := proc.Run(h.Spec); err == nil {
			_ = job.Stop()
			t.Fatalf("%s %+v: started without its output topic", proc.Name(), p)
		}
		if err := leakcheck.Check(2 * time.Second); err != nil {
			t.Fatalf("%s %+v: failed start left goroutines running: %v", proc.Name(), p, err)
		}
	}
}

// Patient is a transport whose every Await is stretched to an hour: a
// consumer parked through it comes back for a record or for its cancel
// channel, never for its deadline, so a test that sees it come back
// needs no timing assertion to know why. Parked counts the awaits in
// progress.
type Patient struct {
	broker.Transport
	Parked atomic.Int64
}

// Await implements broker.Transport.
func (p *Patient) Await(topic string, positions []broker.FetchRequest, _ time.Duration, cancel <-chan struct{}) error {
	p.Parked.Add(1)
	defer p.Parked.Add(-1)
	return p.Transport.Await(topic, positions, time.Hour, cancel)
}

// testStopWhileParked: an idle job's sources park at the broker; a record
// wakes them, and Stop ends them through their cancel channel — with
// every wait an hour long, a Stop that waited for a deadline would hang
// the test.
func testStopWhileParked(t *testing.T, proc sps.Processor) {
	h := NewHarness(t, 2, 2)
	patient := &Patient{Transport: h.Broker}
	h.Spec.Transport = patient
	h.Spec.Parallelism = sps.Parallelism{Default: 2}
	job, err := proc.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let the sources park (spark-ss never does: its trigger paces it).
	for deadline := time.Now().Add(200 * time.Millisecond); patient.Parked.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	h.Produce(t, 6)
	if out := h.CollectOutput(t, 6, 10*time.Second); len(out) != 6 {
		t.Fatalf("%s: %d of 6 records reached the output of an idle job", proc.Name(), len(out))
	}
	stopped := make(chan error, 1)
	go func() { stopped <- job.Stop() }()
	select {
	case err := <-stopped:
		if err != nil {
			t.Fatalf("stop: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: Stop did not return with its sources parked", proc.Name())
	}
}

func testEndToEnd(t *testing.T, proc sps.Processor, mp int) {
	h := NewHarness(t, 4, 4)
	const n = 40
	h.Produce(t, n)
	h.Spec.Parallelism = sps.Parallelism{Default: mp}
	job, err := proc.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	out := h.CollectOutput(t, n, 10*time.Second)
	if err := job.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if len(out) != n {
		t.Fatalf("%s: got %d records, want %d", proc.Name(), len(out), n)
	}
	want := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		want = append(want, []byte(fmt.Sprintf("r%d!scored", i)))
	}
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })
	for i := range want {
		if !bytes.Equal(out[i], want[i]) {
			t.Fatalf("%s: record %d = %q, want %q", proc.Name(), i, out[i], want[i])
		}
	}
}

func testTransformError(t *testing.T, proc sps.Processor) {
	h := NewHarness(t, 2, 2)
	boom := errors.New("scoring exploded")
	h.Spec.Transform = func(v []byte) ([]byte, error) { return nil, boom }
	h.Produce(t, 3)
	job, err := proc.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	giveUp := time.NewTimer(5 * time.Second)
	defer giveUp.Stop()
	select {
	case <-job.ErrSignal():
	case <-giveUp.C:
		t.Fatalf("%s: transform error never surfaced", proc.Name())
	}
	if job.Err() == nil {
		t.Fatalf("%s: ErrSignal fired but Err is nil", proc.Name())
	}
	if err := job.Stop(); err == nil {
		t.Fatalf("%s: Stop did not report the error", proc.Name())
	}
}

func testStopIdempotent(t *testing.T, proc sps.Processor) {
	h := NewHarness(t, 2, 2)
	job, err := proc.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := job.Stop(); err != nil {
		t.Fatalf("%s: second Stop: %v", proc.Name(), err)
	}
}

func testSpecValidation(t *testing.T, proc sps.Processor) {
	h := NewHarness(t, 1, 1)
	bad := h.Spec
	bad.Transform = nil
	if _, err := proc.Run(bad); err == nil {
		t.Fatalf("%s: nil transform accepted", proc.Name())
	}
	bad = h.Spec
	bad.Transport = nil
	if _, err := proc.Run(bad); err == nil {
		t.Fatalf("%s: nil transport accepted", proc.Name())
	}
	bad = h.Spec
	bad.InputTopic = ""
	if _, err := proc.Run(bad); err == nil {
		t.Fatalf("%s: empty input topic accepted", proc.Name())
	}
	bad = h.Spec
	bad.InputTopic = "missing"
	if _, err := proc.Run(bad); err == nil {
		t.Fatalf("%s: missing input topic accepted", proc.Name())
	}
}

func testContinuousFlow(t *testing.T, proc sps.Processor) {
	// Records produced while the job is already running must flow too
	// (streaming, not batch).
	h := NewHarness(t, 2, 2)
	h.Spec.Parallelism = sps.Parallelism{Default: 2}
	job, err := proc.Run(h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := job.Stop(); err != nil {
			t.Errorf("%s: stop: %v", proc.Name(), err)
		}
	}()
	// Each round's records must come out before the next round goes in:
	// stronger than one bulk check, and needs no pacing sleeps.
	for round := 1; round <= 3; round++ {
		h.Produce(t, 5)
		out := h.CollectOutput(t, 5*round, 10*time.Second)
		if len(out) != 5*round {
			t.Fatalf("%s: round %d: got %d records, want %d", proc.Name(), round, len(out), 5*round)
		}
	}
}
