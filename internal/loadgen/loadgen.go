// Package loadgen is the experiment harness's load generator: it turns a
// declarative arrival-process policy into a deterministic arrival
// schedule and paces a producer against it, in the spirit of the MLPerf
// Inference LoadGen (see PAPERS.md). The paper evaluates every
// engine × serving-tool pair under a single open-loop arrival process;
// real inference serving is judged against distinct load shapes with
// distinct pass/fail constraints, and this package supplies both halves:
// arrival processes (constant, Poisson, trace replay, phased diurnal or
// burst composition, saturation) and the four MLPerf-style scenarios
// with their constraint validators (scenario.go).
//
// Determinism contract (docs/SCENARIOS.md): a Policy is a pure
// description — the same policy (including its seed) always yields a
// byte-identical schedule, pinned by WriteSchedule and the conformance
// suite. All randomness flows from Policy.Seed through one seeded
// generator; no wall-clock value ever influences an arrival offset.
//
// Time discipline: schedules are pure offsets, so only the Pacer touches
// the clock — and it does so exclusively through an injectable Clock,
// like the broker and the micro-batcher, so pacing tests run on a
// virtual clock and the crayfishlint clockdiscipline analyzer covers
// this package.
package loadgen

import (
	"fmt"
	"math/rand"
	"time"

	"crayfish/internal/timing"
)

// ProcessKind names an arrival process.
type ProcessKind string

// Arrival processes.
const (
	// ProcessConstant paces arrivals at a fixed rate: arrival k lands at
	// offset k/Rate. This is the paper's open-loop generator.
	ProcessConstant ProcessKind = "constant"
	// ProcessPoisson draws exponentially distributed inter-arrival gaps
	// at the target rate from the seeded generator — the MLPerf server
	// scenario's arrival process.
	ProcessPoisson ProcessKind = "poisson"
	// ProcessTrace replays an explicit list of arrival offsets once;
	// production ends when the trace is exhausted.
	ProcessTrace ProcessKind = "trace" //lint:allow deadexport enum value of Policy.Process; unexport it with the next change that may rebuild the bench binary
	// ProcessPhased cycles through a list of phases (duration + rate +
	// per-phase process), composing diurnal patterns and the legacy
	// periodic-burst generator.
	ProcessPhased ProcessKind = "phased"
	// ProcessSaturate emits with no pacing at all: the producer issues
	// as fast as it can — the paper's saturation probes and the MLPerf
	// offline scenario.
	ProcessSaturate ProcessKind = "saturate" //lint:allow deadexport enum value of Policy.Process; unexport it with the next change that may rebuild the bench binary
)

// Phase is one segment of a phased (diurnal/burst) composition.
type Phase struct {
	// Duration is the phase's length within the repeating cycle.
	Duration time.Duration
	// Rate is the phase's target rate in events/s.
	Rate float64
	// process is the phase-local arrival process: ProcessConstant
	// (default) or ProcessPoisson.
	process ProcessKind
}

// Policy declaratively describes an arrival process. It is pure data:
// two equal policies always generate byte-identical schedules.
type Policy struct {
	// Process selects the arrival process.
	Process ProcessKind
	// Rate is the target rate in events/s (constant, poisson).
	Rate float64
	// Seed drives every random draw the policy makes (poisson, phased
	// poisson segments). Equal seeds yield byte-identical schedules.
	Seed int64
	// trace is the explicit arrival-offset list for ProcessTrace;
	// offsets are since run start and must be non-decreasing.
	trace []time.Duration
	// Phases is the repeating cycle for ProcessPhased.
	Phases []Phase
}

// Constant builds an open-loop constant-rate policy.
func Constant(rate float64) Policy {
	return Policy{Process: ProcessConstant, Rate: rate}
}

// Poisson builds a Poisson-arrival policy at the target rate.
func Poisson(rate float64, seed int64) Policy {
	return Policy{Process: ProcessPoisson, Rate: rate, Seed: seed}
}

// Phased builds a repeating phase-cycle policy (diurnal/burst shapes).
func Phased(seed int64, phases ...Phase) Policy {
	return Policy{Process: ProcessPhased, Seed: seed, Phases: phases}
}

// Saturate builds the unpaced saturation policy.
func Saturate() Policy {
	return Policy{Process: ProcessSaturate}
}

// Validate checks the policy is well formed.
func (p Policy) Validate() error {
	switch p.Process {
	case ProcessConstant, ProcessPoisson:
		if p.Rate <= 0 {
			return fmt.Errorf("loadgen: %s policy needs a positive rate, got %v", p.Process, p.Rate)
		}
	case ProcessTrace:
		if len(p.trace) == 0 {
			return fmt.Errorf("loadgen: trace policy needs at least one arrival offset")
		}
		for i := 1; i < len(p.trace); i++ {
			if p.trace[i] < p.trace[i-1] {
				return fmt.Errorf("loadgen: trace offsets must be non-decreasing (offset %d: %v < %v)", i, p.trace[i], p.trace[i-1])
			}
		}
		if p.trace[0] < 0 {
			return fmt.Errorf("loadgen: trace offsets must be non-negative, got %v", p.trace[0])
		}
	case ProcessPhased:
		if len(p.Phases) == 0 {
			return fmt.Errorf("loadgen: phased policy needs at least one phase")
		}
		for i, ph := range p.Phases {
			if ph.Duration <= 0 {
				return fmt.Errorf("loadgen: phase %d needs a positive duration, got %v", i, ph.Duration)
			}
			if ph.Rate <= 0 {
				return fmt.Errorf("loadgen: phase %d needs a positive rate, got %v", i, ph.Rate)
			}
			switch ph.process {
			case "", ProcessConstant, ProcessPoisson:
			default:
				return fmt.Errorf("loadgen: phase %d process must be constant or poisson, got %q", i, ph.process)
			}
		}
	case ProcessSaturate:
	case "":
		return fmt.Errorf("loadgen: policy needs a process kind")
	default:
		return fmt.Errorf("loadgen: unknown process kind %q", p.Process)
	}
	return nil
}

// Schedule is a deterministic arrival schedule: an iterator over event
// offsets since run start. It is generated lazily so unbounded processes
// (constant, Poisson, phased) cost nothing up front; every offset is a
// pure function of the policy and the arrival index.
type Schedule struct {
	p   Policy
	rng *rand.Rand
	t   time.Duration // cursor: offset of the next arrival to hand out
	idx int           // arrivals handed out so far (trace index)
}

// Schedule instantiates the policy's arrival schedule.
func (p Policy) Schedule() (*Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Schedule{p: p, rng: rand.New(rand.NewSource(p.Seed))}, nil
}

// saturating reports whether the schedule carries no pacing at all.
func (s *Schedule) saturating() bool {
	return s.p.Process == ProcessSaturate
}

// Next returns the next arrival's offset since run start, the
// instantaneous target rate at that arrival (0 for trace replay and
// saturation, which have no rate parameter), and whether an arrival
// exists — false only when a replayed trace is exhausted.
func (s *Schedule) Next() (offset time.Duration, rate float64, ok bool) {
	switch s.p.Process {
	case ProcessSaturate:
		return 0, 0, true
	case ProcessConstant:
		// Arrival k at k/rate: the first event fires immediately, like
		// the legacy open-loop generator.
		offset = s.t
		s.t += time.Duration(float64(time.Second) / s.p.Rate)
		return offset, s.p.Rate, true
	case ProcessPoisson:
		s.t += time.Duration(s.rng.ExpFloat64() * float64(time.Second) / s.p.Rate)
		return s.t, s.p.Rate, true
	case ProcessTrace:
		if s.idx >= len(s.p.trace) {
			return 0, 0, false
		}
		offset = s.p.trace[s.idx]
		s.idx++
		return offset, 0, true
	case ProcessPhased:
		ph := s.phaseAt(s.t)
		offset = s.t
		gap := time.Duration(float64(time.Second) / ph.Rate)
		if ph.process == ProcessPoisson {
			gap = time.Duration(s.rng.ExpFloat64() * float64(time.Second) / ph.Rate)
			// Poisson phases place the arrival after the gap, like the
			// pure Poisson process.
			s.t += gap
			return s.t, ph.Rate, true
		}
		s.t += gap
		return offset, ph.Rate, true
	}
	return 0, 0, false
}

// phaseAt resolves the phase containing an offset; the cycle repeats.
func (s *Schedule) phaseAt(off time.Duration) Phase {
	var cycle time.Duration
	for _, ph := range s.p.Phases {
		cycle += ph.Duration
	}
	pos := off % cycle
	for _, ph := range s.p.Phases {
		if pos < ph.Duration {
			return ph
		}
		pos -= ph.Duration
	}
	return s.p.Phases[len(s.p.Phases)-1]
}

// Clock abstracts time for the Pacer so tests (and deterministic
// experiments) inject a virtual clock instead of the wall clock.
type Clock struct {
	// Now reads the current time.
	Now func() time.Time
	// WaitUntil blocks until deadline on this clock and reports true, or
	// reports false once stop is closed (the wait for the next scheduled
	// arrival).
	WaitUntil func(deadline time.Time, stop <-chan struct{}) bool
}

// realClock is the wall-clock default used outside tests. It waits with
// timing.WaitUntil, which ends a wait at its deadline where a runtime
// timer would end a sub-millisecond one ≈ 1.1 ms after it.
func realClock() Clock {
	return Clock{
		Now:       time.Now, //lint:allow clockdiscipline documented default; tests inject a virtual clock
		WaitUntil: timing.WaitUntil,
	}
}

// MaxScheduleDebt caps how far a lagging producer may trail its schedule
// before the remainder is forgiven: after an overload stall the producer
// catches up at most this much, and the rest of the schedule shifts
// forward, so a pathological stall does not turn into an unbounded
// flood. This is the open-loop catch-up rule the legacy generator used.
const MaxScheduleDebt = time.Second

// Pacer paces a producer against a schedule on a (virtual or real)
// clock. It is single-goroutine: one producer loop owns it.
type Pacer struct {
	s     *Schedule
	c     Clock
	start time.Time
	shift time.Duration
}

// NewPacer builds a pacer over the schedule. A zero Clock defaults to
// the wall clock.
func NewPacer(s *Schedule, c Clock) *Pacer {
	if c.Now == nil || c.WaitUntil == nil {
		c = realClock()
	}
	return &Pacer{s: s, c: c}
}

// Start stamps the schedule's origin and returns it; offsets are paced
// relative to this instant.
func (p *Pacer) Start() time.Time {
	p.start = p.c.Now()
	return p.start
}

// Tick advances to the next scheduled arrival. due is the instant the
// arrival falls due when that is still ahead of the clock, for the
// caller to WaitUntil, and the zero Time when it is already due; lag is
// how far the caller trails the schedule (0 when on time, capped at
// MaxScheduleDebt — the excess shifts the remaining schedule), rate is
// the instantaneous target rate, and ok is false only when a replayed
// trace is exhausted. Saturating schedules always return immediately
// with no due time and no lag.
//
// A caller that does work between Tick and the wait (the producer
// flushes its pending batch) still issues on schedule: the wait ends at
// due, not at a duration from the clock read Tick made.
func (p *Pacer) Tick() (due time.Time, lag time.Duration, rate float64, ok bool) {
	if p.s.saturating() {
		return time.Time{}, 0, 0, true
	}
	off, rate, ok := p.s.Next()
	if !ok {
		return time.Time{}, 0, 0, false
	}
	due = p.start.Add(off + p.shift)
	now := p.c.Now()
	if due.After(now) {
		return due, 0, rate, true
	}
	lag = now.Sub(due)
	if lag > MaxScheduleDebt {
		p.shift += lag - MaxScheduleDebt
		lag = MaxScheduleDebt
	}
	return time.Time{}, lag, rate, true
}

// WaitUntil waits on the pacer's clock until due, returning false if
// stop closed first.
func (p *Pacer) WaitUntil(due time.Time, stop <-chan struct{}) bool {
	return p.c.WaitUntil(due, stop)
}
