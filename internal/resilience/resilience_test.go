package resilience

import (
	"errors"
	"testing"
	"time"
)

func TestMarkRetryable(t *testing.T) {
	base := errors.New("boom")
	if IsRetryable(base) {
		t.Fatal("unmarked error reported retryable")
	}
	m := MarkRetryable(base)
	if !IsRetryable(m) {
		t.Fatal("marked error not retryable")
	}
	if !errors.Is(m, base) {
		t.Fatal("marking broke the Is chain")
	}
	if MarkRetryable(nil) != nil {
		t.Fatal("marking nil should stay nil")
	}
	wrapped := errors.New("outer: " + m.Error())
	if IsRetryable(wrapped) {
		t.Fatal("string concat must not inherit the mark")
	}
	if !IsRetryable(MarkRetryable(MarkRetryable(base))) {
		t.Fatal("double marking lost the flag")
	}
}

func TestRetryStopsOnNonRetryable(t *testing.T) {
	fatal := errors.New("fatal")
	calls := 0
	r := &Retry{Attempts: 5, Sleep: func(time.Duration) {}}
	err := r.Do(func() error { calls++; return fatal })
	if !errors.Is(err, fatal) {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Fatalf("non-retryable error retried %d times", calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	r := &Retry{Attempts: 3, Sleep: func(time.Duration) {}}
	err := r.Do(func() error { calls++; return MarkRetryable(errors.New("flaky")) })
	if err == nil {
		t.Fatal("expected error after exhaustion")
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestRetryEventualSuccess(t *testing.T) {
	calls := 0
	var delays []time.Duration
	r := &Retry{
		Attempts:  5,
		BaseDelay: 10 * time.Millisecond,
		Sleep:     func(d time.Duration) { delays = append(delays, d) },
	}
	err := r.Do(func() error {
		calls++
		if calls < 3 {
			return MarkRetryable(errors.New("flaky"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(delays))
	}
	// Second backoff must be roughly double the first (within jitter).
	if delays[1] < delays[0] {
		t.Fatalf("backoff not growing: %v then %v", delays[0], delays[1])
	}
}

func TestRetryBackoffDeterministicAcrossSeeds(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var delays []time.Duration
		r := &Retry{Attempts: 4, Seed: seed, Sleep: func(d time.Duration) { delays = append(delays, d) }}
		_ = r.Do(func() error { return MarkRetryable(errors.New("flaky")) })
		return delays
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRetryBackoffCapped(t *testing.T) {
	r := &Retry{BaseDelay: 100 * time.Millisecond, MaxDelay: 250 * time.Millisecond}
	d := r.backoff(10)
	if d > 300*time.Millisecond {
		t.Fatalf("backoff %v exceeded cap", d)
	}
}

func TestRetryMaxElapsed(t *testing.T) {
	var now time.Time
	calls := 0
	r := &Retry{
		MaxElapsed: 50 * time.Millisecond,
		BaseDelay:  time.Millisecond,
		clock:      func() time.Time { return now },
		Sleep:      func(d time.Duration) { now = now.Add(d) },
	}
	err := r.Do(func() error {
		calls++
		now = now.Add(20 * time.Millisecond)
		return MarkRetryable(errors.New("flaky"))
	})
	if err == nil {
		t.Fatal("expected failure")
	}
	if calls < 2 || calls > 5 {
		t.Fatalf("calls = %d, want a handful bounded by elapsed time", calls)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	var now time.Time
	var transitions []string
	b := &Breaker{
		FailureThreshold: 3,
		Cooldown:         100 * time.Millisecond,
		clock:            func() time.Time { return now },
		OnChange: func(from, to State) {
			transitions = append(transitions, from.String()+"->"+to.String())
		},
	}
	fail := func() {
		if err := b.allow(); err != nil {
			t.Fatalf("closed breaker shed a call: %v", err)
		}
		b.failure()
	}
	fail()
	fail()
	if b.State() != Closed {
		t.Fatalf("opened before threshold: %v", b.State())
	}
	fail()
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	// Shed while open, before cooldown.
	if err := b.allow(); err == nil {
		t.Fatal("open breaker admitted a call")
	} else if !IsRetryable(err) || !errors.Is(err, ErrOpen) {
		t.Fatalf("shed error not typed/retryable: %v", err)
	}
	// After cooldown: one probe admitted, a second concurrent call shed.
	now = now.Add(150 * time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("probe not admitted: %v", err)
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if err := b.allow(); err == nil {
		t.Fatal("second probe admitted while first in flight")
	}
	b.success()
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed after probe success", b.State())
	}
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	var now time.Time
	b := &Breaker{FailureThreshold: 1, Cooldown: 10 * time.Millisecond, clock: func() time.Time { return now }}
	if err := b.allow(); err != nil {
		t.Fatal(err)
	}
	b.failure()
	now = now.Add(20 * time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("probe not admitted: %v", err)
	}
	b.failure()
	if b.State() != Open {
		t.Fatalf("state = %v, want open after probe failure", b.State())
	}
}

func TestBreakerOnShed(t *testing.T) {
	var now time.Time
	sheds := 0
	b := &Breaker{FailureThreshold: 1, clock: func() time.Time { return now }, OnShed: func() { sheds++ }}
	_ = b.allow()
	b.failure()
	for i := 0; i < 3; i++ {
		_ = b.allow()
	}
	if sheds != 3 {
		t.Fatalf("sheds = %d, want 3", sheds)
	}
}

func TestRunComposesRetryAndBreaker(t *testing.T) {
	// A breaker that opens after 2 failures plus a retry whose backoff
	// outlasts the cooldown: the composed call should shed during the
	// cooldown, then probe, then succeed once the fault clears.
	var now time.Time
	clock := func() time.Time { return now }
	b := &Breaker{FailureThreshold: 2, Cooldown: 30 * time.Millisecond, clock: clock}
	r := &Retry{
		MaxElapsed: time.Second,
		BaseDelay:  20 * time.Millisecond,
		MaxDelay:   20 * time.Millisecond,
		clock:      clock,
		Sleep:      func(d time.Duration) { now = now.Add(d) },
	}
	calls := 0
	err := Run(r, b, func() error {
		calls++
		if now.Before(time.Time{}.Add(50 * time.Millisecond)) {
			return MarkRetryable(errors.New("daemon down"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("composed call failed: %v", err)
	}
	if b.State() != Closed {
		t.Fatalf("breaker = %v, want closed", b.State())
	}
	if calls < 2 {
		t.Fatalf("calls = %d, want the fault exercised", calls)
	}
}

func TestRunNilComponents(t *testing.T) {
	calls := 0
	if err := Run(nil, nil, func() error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	fatal := errors.New("fatal")
	if err := Run(nil, nil, func() error { return fatal }); !errors.Is(err, fatal) {
		t.Fatalf("err = %v", err)
	}
}
