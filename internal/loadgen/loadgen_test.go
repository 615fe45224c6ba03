package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"
)

// scheduleBytes renders the canonical conformance form of a policy.
func scheduleBytes(t *testing.T, p Policy, n int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, p, n); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestScheduleDeterminism is the byte-identity contract: the same policy
// (including seed) always renders the identical schedule, and the seed
// actually matters for the stochastic processes.
func TestScheduleDeterminism(t *testing.T) {
	policies := map[string]Policy{
		"constant": Constant(250),
		"poisson":  Poisson(1000, 42),
		"trace":    Trace([]time.Duration{0, time.Millisecond, 5 * time.Millisecond}),
		"phased": Phased(7,
			Phase{Duration: 10 * time.Millisecond, Rate: 1000},
			Phase{Duration: 20 * time.Millisecond, Rate: 100, process: ProcessPoisson},
		),
	}
	for name, p := range policies {
		a := scheduleBytes(t, p, 512)
		b := scheduleBytes(t, p, 512)
		if a != b {
			t.Errorf("%s: same policy rendered two different schedules", name)
		}
		if a == "" {
			t.Errorf("%s: empty schedule", name)
		}
	}
	if scheduleBytes(t, Poisson(1000, 42), 64) == scheduleBytes(t, Poisson(1000, 43), 64) {
		t.Error("poisson: different seeds produced identical schedules")
	}
	if scheduleBytes(t, Saturate(), 8) != "saturate\n" {
		t.Error("saturate: canonical form changed")
	}
}

// TestScheduleGolden pins exact offsets so an accidental change to the
// generation algorithm (which would silently invalidate every recorded
// experiment) fails loudly. The Poisson draws are stable because Go's
// math/rand sequences are covered by the Go 1 compatibility promise.
func TestScheduleGolden(t *testing.T) {
	cases := []struct {
		name string
		p    Policy
		want string
	}{
		{
			name: "constant-250",
			p:    Constant(250),
			want: "0 0 250\n1 4000000 250\n2 8000000 250\n3 12000000 250\n",
		},
		{
			name: "poisson-1000-seed42",
			p:    Poisson(1000, 42),
			want: "0 495738 1000\n1 626285 1000\n2 779518 1000\n3 1117964 1000\n",
		},
		{
			name: "trace",
			p:    Trace([]time.Duration{0, time.Millisecond}),
			want: "0 0 0\n1 1000000 0\n",
		},
	}
	for _, c := range cases {
		if got := scheduleBytes(t, c.p, 4); got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// TestTraceExhaustion: a replayed trace ends production, it does not wrap.
func TestTraceExhaustion(t *testing.T) {
	s, err := Trace([]time.Duration{0, time.Millisecond}).Schedule()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, ok := s.Next(); !ok {
			t.Fatalf("trace ended after %d of 2 arrivals", i)
		}
	}
	if _, _, ok := s.Next(); ok {
		t.Fatal("trace did not end after its last arrival")
	}
}

// TestPhasedCycle checks the phase cycle: rates follow the phase the
// cursor sits in, and the cycle repeats after its total duration.
func TestPhasedCycle(t *testing.T) {
	p := Phased(0,
		Phase{Duration: 10 * time.Millisecond, Rate: 1000},
		Phase{Duration: 10 * time.Millisecond, Rate: 100},
	)
	s, err := p.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	var fast, slow int
	for i := 0; i < 30; i++ {
		off, rate, ok := s.Next()
		if !ok {
			t.Fatal("phased schedule ended")
		}
		inFast := (off % (20 * time.Millisecond)) < 10*time.Millisecond
		switch {
		case inFast && rate == 1000:
			fast++
		case !inFast && rate == 100:
			slow++
		default:
			t.Fatalf("arrival %d at %v reported rate %v", i, off, rate)
		}
	}
	// 10ms at 1000/s = 10 arrivals, then 10ms at 100/s = 1 arrival, and
	// the cycle repeats: both phases must have fired, fast dominating.
	if fast == 0 || slow == 0 || fast <= slow {
		t.Fatalf("phase mix wrong: %d fast, %d slow", fast, slow)
	}
}

// TestPolicyValidate covers the malformed-policy surface.
func TestPolicyValidate(t *testing.T) {
	bad := []Policy{
		{},
		{Process: "warp"},
		Constant(0),
		Poisson(-1, 1),
		Trace(nil),
		Trace([]time.Duration{time.Millisecond, 0}),
		Trace([]time.Duration{-time.Millisecond}),
		Phased(1),
		Phased(1, Phase{Duration: 0, Rate: 10}),
		Phased(1, Phase{Duration: time.Second, Rate: 0}),
		Phased(1, Phase{Duration: time.Second, Rate: 10, process: ProcessTrace}),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%+v): invalid policy validated", i, p)
		}
	}
	good := []Policy{
		Constant(10), Poisson(10, 0), Saturate(),
		Trace([]time.Duration{0, 0, time.Millisecond}),
		Phased(0, Phase{Duration: time.Second, Rate: 1, process: ProcessPoisson}),
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

// vclock is a manually advanced virtual clock; WaitUntil moves the
// clock to the deadline immediately, so paced waits are instant in tests.
type vclock struct {
	now time.Time
}

func (v *vclock) clock() Clock {
	return Clock{
		Now: func() time.Time { return v.now },
		WaitUntil: func(deadline time.Time, stop <-chan struct{}) bool {
			select {
			case <-stop:
				return false
			default:
			}
			if deadline.After(v.now) {
				v.now = deadline
			}
			return true
		},
	}
}

// TestPacerPacing: the pacer hands out exactly the schedule's due
// instants on a virtual clock, and reports zero lag when on time. Work
// the caller does between Tick and the wait (the producer's flush, here
// 0.3 ms) does not delay the arrival: every wait ends at the due
// instant, not a flush later, so issue times do not drift.
func TestPacerPacing(t *testing.T) {
	s, err := Constant(1000).Schedule()
	if err != nil {
		t.Fatal(err)
	}
	const flush = 300 * time.Microsecond
	vc := &vclock{now: time.Unix(0, 0)}
	p := NewPacer(s, vc.clock())
	start := p.Start()
	for i := 0; i < 50; i++ {
		due, lag, rate, ok := p.Tick()
		if !ok || rate != 1000 {
			t.Fatalf("tick %d: ok=%v rate=%v", i, ok, rate)
		}
		if lag != 0 {
			t.Fatalf("tick %d: on-time pacer reported lag %v", i, lag)
		}
		var want time.Time // arrival 0 is due at the start: no wait
		if i > 0 {
			want = start.Add(time.Duration(i) * time.Millisecond)
		}
		if !due.Equal(want) {
			t.Fatalf("tick %d: due %v, want %v", i, due, want)
		}
		if due.IsZero() {
			continue
		}
		vc.now = vc.now.Add(flush)
		if !p.WaitUntil(due, nil) {
			t.Fatalf("tick %d: wait interrupted", i)
		}
		if !vc.now.Equal(due) {
			t.Fatalf("tick %d: issued at +%v, want its due time +%v", i, vc.now.Sub(start), due.Sub(start))
		}
	}
}

// TestPacerDebtCap: a stalled producer owes at most MaxScheduleDebt of
// catch-up; the excess shifts the rest of the schedule forward.
func TestPacerDebtCap(t *testing.T) {
	s, err := Constant(1000).Schedule()
	if err != nil {
		t.Fatal(err)
	}
	vc := &vclock{now: time.Unix(0, 0)}
	p := NewPacer(s, vc.clock())
	p.Start()
	p.Tick() // consume arrival 0 at offset 0
	vc.now = vc.now.Add(3 * time.Second)
	due, lag, _, _ := p.Tick() // arrival 1 was due at 1ms: ~3s late
	if lag != MaxScheduleDebt || !due.IsZero() {
		t.Fatalf("lag %v due %v, want capped at %v and nothing to wait for", lag, due, MaxScheduleDebt)
	}
	// The excess was forgiven: arrival 2 (scheduled 2ms) shifted forward
	// by ~3s-1ms-1s, so its remaining lag is just under the cap.
	_, lag, _, _ = p.Tick()
	if lag >= MaxScheduleDebt || lag <= 0 {
		t.Fatalf("post-forgiveness lag %v, want within (0, %v)", lag, MaxScheduleDebt)
	}
}

// TestPacerSaturate: a saturating schedule never waits and never lags.
func TestPacerSaturate(t *testing.T) {
	s, err := Saturate().Schedule()
	if err != nil {
		t.Fatal(err)
	}
	vc := &vclock{now: time.Unix(0, 0)}
	p := NewPacer(s, vc.clock())
	p.Start()
	for i := 0; i < 3; i++ {
		due, lag, _, ok := p.Tick()
		if !ok || !due.IsZero() || lag != 0 {
			t.Fatalf("saturating tick %d: due=%v lag=%v ok=%v", i, due, lag, ok)
		}
	}
}

// TestPacerWaitStop: a closed stop channel interrupts the paced wait,
// on an injected clock that never reaches the deadline and on the wall
// clock's default.
func TestPacerWaitStop(t *testing.T) {
	s, err := Constant(1).Schedule()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	blocked := Clock{
		Now: func() time.Time { return time.Unix(0, 0) },
		WaitUntil: func(_ time.Time, stop <-chan struct{}) bool {
			<-stop
			return false
		},
	}
	for name, c := range map[string]Clock{"injected": blocked, "default": {}} {
		p := NewPacer(s, c)
		if p.WaitUntil(p.Start().Add(time.Hour), stop) {
			t.Fatalf("%s clock: an hour's wait survived a closed stop channel", name)
		}
	}
}

// Trace builds a trace-replay policy over explicit arrival offsets.
func Trace(offsets []time.Duration) Policy {
	return Policy{Process: ProcessTrace, trace: offsets}
}

// WriteSchedule writes the first n arrivals of the policy's schedule in
// the canonical conformance format — one "index offset_ns rate" line per
// arrival. This is the byte-identity surface: equal policies (same seed)
// must produce equal bytes, pinned by the loadgen conformance suite.
// Unbounded processes emit exactly n lines; a shorter trace ends early.
func WriteSchedule(w io.Writer, p Policy, n int) error {
	s, err := p.Schedule()
	if err != nil {
		return err
	}
	if s.saturating() {
		_, err := fmt.Fprintf(w, "saturate\n")
		return err
	}
	for i := 0; i < n; i++ {
		off, rate, ok := s.Next()
		if !ok {
			break
		}
		if _, err := fmt.Fprintf(w, "%d %d %g\n", i, off.Nanoseconds(), rate); err != nil {
			return err
		}
	}
	return nil
}
