// Package resilience provides the client-side fault-handling primitives
// the Crayfish pipeline leans on wherever a remote call can fail:
// exponential backoff with jitter (Retry), a three-state circuit breaker
// (Breaker), and a typed "retryable" error marker so transports can tell
// callers which failures are worth another attempt.
//
// The package is a base layer (stdlib-only, see docs/STATIC_ANALYSIS.md):
// it never imports other crayfish packages, so the TCP substrate
// (internal/grpcish, which the broker's wire protocol runs on too) and
// the serving clients can depend on it without cycles.
//
// Determinism contract: Retry's jitter comes from a seeded math/rand
// source, and both Retry and Breaker accept injected Clock/Sleep hooks,
// so a fault-injection run (internal/faults) replays byte-identically.
package resilience

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"crayfish/internal/timing"
)

// markedErr wraps an error to flag it as retryable. It preserves the
// wrapped error for errors.Is/As chains.
type markedErr struct{ err error }

func (m *markedErr) Error() string { return m.err.Error() }
func (m *markedErr) Unwrap() error { return m.err }

// MarkRetryable flags err as transient: a Retry wrapping the operation
// will attempt it again. Marking nil returns nil.
func MarkRetryable(err error) error {
	if err == nil {
		return nil
	}
	return &markedErr{err: err}
}

// IsRetryable reports whether err (or anything it wraps) was flagged
// with MarkRetryable.
func IsRetryable(err error) bool {
	var m *markedErr
	return errors.As(err, &m)
}

// ErrOpen is returned (wrapped retryable) when a Breaker sheds a call
// because the circuit is open.
//
//lint:allow deadexport grpcish's breaker tests match it
var ErrOpen = errors.New("resilience: circuit open")

// State is a circuit breaker's position.
type State int32

// Breaker states: Closed passes calls through, Open sheds them, HalfOpen
// lets a single probe through after the cooldown.
const (
	Closed State = iota
	HalfOpen
	Open
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	case Open:
		return "open"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Breaker is a three-state circuit breaker. The zero value is usable
// (defaults fill in on first use); all methods are safe for concurrent
// use.
//
// Closed → Open after FailureThreshold consecutive failures; Open →
// HalfOpen after Cooldown elapses (one probe call passes); HalfOpen →
// Closed on probe success, back to Open on probe failure.
type Breaker struct {
	// FailureThreshold is the consecutive-failure count that opens the
	// circuit (default 5).
	FailureThreshold int
	// Cooldown is how long the circuit stays open before a probe is
	// allowed (default 100ms).
	Cooldown time.Duration
	// clock supplies the current time (default time.Now); injected by
	// the fault layer for deterministic replay.
	clock func() time.Time
	// OnChange, if set, observes every state transition. Called outside
	// the breaker's lock.
	OnChange func(from, to State)
	// OnShed, if set, observes every shed (rejected) call. Called
	// outside the breaker's lock.
	OnShed func()

	mu       sync.Mutex
	state    State
	failures int
	openedAt time.Time
	probing  bool
}

func (b *Breaker) now() time.Time {
	if b.clock != nil {
		return b.clock()
	}
	return time.Now() //lint:allow clockdiscipline documented default; the fault layer injects its clock
}

func (b *Breaker) threshold() int {
	if b.FailureThreshold <= 0 {
		return 5
	}
	return b.FailureThreshold
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return 100 * time.Millisecond
	}
	return b.Cooldown
}

// State returns the breaker's current position. A nil breaker is always
// Closed.
func (b *Breaker) State() State {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// allow reports whether a call may proceed. It returns nil to admit the
// call, or a retryable error wrapping ErrOpen when the call is shed.
// Every admitted call must be followed by exactly one Success or
// Failure. A nil breaker admits everything.
func (b *Breaker) allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	switch b.state {
	case Closed:
		b.mu.Unlock()
		return nil
	case Open:
		if b.now().Sub(b.openedAt) >= b.cooldown() {
			from := b.state
			b.state = HalfOpen
			b.probing = true
			b.mu.Unlock()
			b.change(from, HalfOpen)
			return nil
		}
	case HalfOpen:
		if !b.probing {
			b.probing = true
			b.mu.Unlock()
			return nil
		}
	}
	b.mu.Unlock()
	if b.OnShed != nil {
		b.OnShed()
	}
	return MarkRetryable(fmt.Errorf("%w (retry after %v)", ErrOpen, b.cooldown()))
}

// success records a successful call admitted by Allow.
func (b *Breaker) success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	from := b.state
	b.failures = 0
	b.probing = false
	if b.state == HalfOpen {
		b.state = Closed
	}
	to := b.state
	b.mu.Unlock()
	if from != to {
		b.change(from, to)
	}
}

// failure records a failed call admitted by Allow.
func (b *Breaker) failure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	from := b.state
	b.probing = false
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.threshold() {
			b.state = Open
			b.openedAt = b.now()
		}
	case HalfOpen:
		b.state = Open
		b.openedAt = b.now()
	case Open:
		// A failure landing while already open (late probe) refreshes
		// the cooldown window.
		b.openedAt = b.now()
	}
	to := b.state
	b.mu.Unlock()
	if from != to {
		b.change(from, to)
	}
}

func (b *Breaker) change(from, to State) {
	if b.OnChange != nil {
		b.OnChange(from, to)
	}
}

// Retry retries an operation with capped exponential backoff and
// deterministic jitter. The zero value is usable (defaults fill in);
// safe for concurrent use.
type Retry struct {
	// Attempts is the total attempt budget including the first call
	// (default 4). Ignored when MaxElapsed is set.
	Attempts int
	// BaseDelay is the first backoff (default 10ms); each retry doubles
	// it up to MaxDelay (default 1s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed seeds the jitter PRNG (default 1) so two runs with the same
	// seed back off identically.
	Seed int64
	// MaxElapsed, when positive, bounds the retry loop by wall time
	// instead of attempt count.
	MaxElapsed time.Duration
	// Sleep and Clock are injectable for tests and the fault layer
	// (defaults timing.Sleep / time.Now).
	Sleep func(time.Duration)
	clock func() time.Time
	// OnAttempt, if set, observes every retry (attempt numbers start at
	// 1 for the first *re*try) with the error that caused it.
	OnAttempt func(attempt int, err error)

	mu  sync.Mutex
	rng *rand.Rand
}

func (r *Retry) attempts() int {
	if r.Attempts <= 0 {
		return 4
	}
	return r.Attempts
}

func (r *Retry) baseDelay() time.Duration {
	if r.BaseDelay <= 0 {
		return 10 * time.Millisecond
	}
	return r.BaseDelay
}

func (r *Retry) maxDelay() time.Duration {
	if r.MaxDelay <= 0 {
		return time.Second
	}
	return r.MaxDelay
}

// retryJitter is the fraction of each delay randomised around its
// centre (±10%).
const retryJitter = 0.2

func (r *Retry) now() time.Time {
	if r.clock != nil {
		return r.clock()
	}
	return time.Now() //lint:allow clockdiscipline documented default; the fault layer injects its clock
}

func (r *Retry) sleep(d time.Duration) {
	if r.Sleep != nil {
		r.Sleep(d)
		return
	}
	timing.Sleep(d)
}

// backoff returns the delay before retry number attempt (1-based),
// exponential from BaseDelay, capped at MaxDelay, jittered.
func (r *Retry) backoff(attempt int) time.Duration {
	d := r.baseDelay()
	max := r.maxDelay()
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max {
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	j := retryJitter
	r.mu.Lock()
	if r.rng == nil {
		seed := r.Seed
		if seed == 0 {
			seed = 1
		}
		r.rng = rand.New(rand.NewSource(seed))
	}
	f := r.rng.Float64()
	r.mu.Unlock()
	// Scale into [1-j/2, 1+j/2): jitter spreads around the nominal delay.
	scaled := float64(d) * (1 - j/2 + j*f)
	return time.Duration(scaled)
}

// Do runs op, retrying retryable errors (IsRetryable) with backoff until
// the attempt or elapsed budget is spent. Non-retryable errors return
// immediately. A nil Retry runs op exactly once.
func (r *Retry) Do(op func() error) error {
	if r == nil {
		return op()
	}
	start := r.now()
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !IsRetryable(err) {
			return err
		}
		if r.MaxElapsed > 0 {
			if r.now().Sub(start) >= r.MaxElapsed {
				return err
			}
		} else if attempt >= r.attempts() {
			return err
		}
		if r.OnAttempt != nil {
			r.OnAttempt(attempt, err)
		}
		r.sleep(r.backoff(attempt))
	}
}

// Run composes the breaker around op and the retry loop around both:
// each attempt first asks the breaker for admission (a shed counts as a
// retryable failure of that attempt, so a retry can ride out the
// cooldown), then reports the outcome back. Either component may be nil.
func Run(r *Retry, b *Breaker, op func() error) error {
	guarded := func() error {
		if err := b.allow(); err != nil {
			return err
		}
		err := op()
		if err != nil {
			b.failure()
			return err
		}
		b.success()
		return nil
	}
	if r == nil {
		return guarded()
	}
	return r.Do(guarded)
}
