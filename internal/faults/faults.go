// Package faults is the deterministic chaos layer for Crayfish
// experiments: a seed-driven Injector executes a Plan of message faults
// (drop / duplicate / delay at the broker boundary) and timed fault
// events (external serving daemon crash + restart, transient scorer
// errors, broker node crash + restart) while a workload runs, so the
// recovery scenario (internal/core.RunRecovery) can measure how each
// SPS × serving pairing behaves when components degrade.
//
// Determinism contract: message faults are keyed by per-topic record
// sequence numbers, not wall time — record seq N on topic T receives the
// same verdict in every run of the same plan. Delay jitter is a pure
// hash of (plan seed, sequence), independent of call order. Timed events
// are logged with their *planned* offsets at Start, never with observed
// wall times. Two runs of the same plan over the same input therefore
// produce byte-identical fault logs (FormatLog) and identical
// loss/duplication accounting.
//
// The package sits on the measurement's timestamp path, so the
// clockdiscipline linter applies: all waiting goes through timers or the
// injected clock, never raw time.Sleep/time.Now.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"crayfish/internal/resilience"
)

// Kind names one fault type.
type Kind string

// The fault taxonomy (docs/FAULTS.md):
//
// message faults, applied per record at the broker boundary —
const (
	// Drop silently loses a record on produce.
	Drop Kind = "drop"
	// Duplicate appends a record twice (at-least-once delivery made
	// visible).
	Duplicate Kind = "duplicate"
	// Delay holds a record's produce call for the rule's Delay
	// (jittered ±25% deterministically).
	Delay Kind = "delay"
)

// timed fault events, fired at plan offsets —
const (
	// Crash kills the external serving daemon (registered handler).
	Crash Kind = "crash"
	// Restart brings the crashed daemon back on its old address.
	Restart Kind = "restart"
	// ScorerError makes every scorer call fail (retryably) for the
	// event's Duration window.
	ScorerError Kind = "scorer-error"
	// BrokerCrash kills the named broker node (Event.Target, e.g.
	// "node-1"; registered handler — broker.Cluster.Bind). A positive
	// Duration makes it a crash *window*: the scheduler synthesises the
	// matching BrokerRestart at At+Duration, so one event expresses
	// "node-1 is down from 100ms to 400ms" deterministically.
	BrokerCrash Kind = "broker-crash"
	// BrokerRestart brings the named broker node back up (registered
	// handler).
	BrokerRestart Kind = "broker-restart"
)

// Rule is one message-fault clause: apply Kind to records FromSeq ≤ seq
// < ToSeq on Topic. Sequence numbers count the records offered to
// Message for that topic, starting at 0.
type Rule struct {
	Topic string
	Kind  Kind
	// FromSeq..ToSeq bound the affected window; ToSeq ≤ 0 means
	// unbounded.
	FromSeq int64
	ToSeq   int64
	// every applies the fault to every n-th record in the window
	// (≤ 1 = all of them).
	every int64
	// Delay is the hold time for Kind == Delay rules.
	Delay time.Duration
}

// Event is one timed fault: at offset At from Start, fire Kind. Crash
// and Restart invoke registered handlers; ScorerError opens a window of
// Duration.
type Event struct {
	At   time.Duration
	Kind Kind
	// Target names the component the event hits (free text, e.g. the
	// serving tool); it flows into the log for readability.
	Target string
	// Duration is the window length for ScorerError.
	Duration time.Duration
}

// Plan is a reproducible fault schedule.
type Plan struct {
	// Seed drives every random choice (delay jitter). Two plans with
	// equal seeds, rules, and events replay identically.
	Seed  int64
	Rules []Rule
	// Events fire in At order from the moment the injector starts.
	Events []Event
}

// Validate rejects malformed plans.
func (p Plan) Validate() error {
	for i, r := range p.Rules {
		if r.Topic == "" {
			return fmt.Errorf("faults: rule %d: empty topic", i)
		}
		switch r.Kind {
		case Drop, Duplicate, Delay:
		default:
			return fmt.Errorf("faults: rule %d: kind %q is not a message fault", i, r.Kind)
		}
		if r.Kind == Delay && r.Delay <= 0 {
			return fmt.Errorf("faults: rule %d: delay rule needs a positive Delay", i)
		}
		if r.ToSeq > 0 && r.ToSeq <= r.FromSeq {
			return fmt.Errorf("faults: rule %d: empty window [%d,%d)", i, r.FromSeq, r.ToSeq)
		}
	}
	for i, e := range p.Events {
		switch e.Kind {
		case Crash, Restart, ScorerError, BrokerCrash, BrokerRestart:
		default:
			return fmt.Errorf("faults: event %d: kind %q is not a timed event", i, e.Kind)
		}
		if e.At < 0 {
			return fmt.Errorf("faults: event %d: negative offset", i)
		}
		if e.Kind == ScorerError && e.Duration <= 0 {
			return fmt.Errorf("faults: event %d: %s needs a positive Duration", i, e.Kind)
		}
		if (e.Kind == BrokerCrash || e.Kind == BrokerRestart) && e.Target == "" {
			return fmt.Errorf("faults: event %d: %s needs a Target naming the broker node", i, e.Kind)
		}
		if e.Kind == BrokerRestart && e.Duration != 0 {
			return fmt.Errorf("faults: event %d: broker-restart is a point event; put the window Duration on the broker-crash", i)
		}
	}
	return nil
}

// LastWindowEnd returns the largest At+Duration over all events (the
// moment the last planned fault has cleared), or 0 with no events.
func (p Plan) LastWindowEnd() time.Duration {
	var end time.Duration
	for _, e := range p.Events {
		if w := e.At + e.Duration; w > end {
			end = w
		}
	}
	return end
}

// Verdict is the combined message-fault outcome for one record.
type Verdict struct {
	Drop      bool
	Duplicate bool
	Delay     time.Duration
}

// LogEntry records one injected fault. Message faults carry Topic and
// Seq; timed events carry their planned At offset and Seq -1.
type LogEntry struct {
	Kind   Kind
	Topic  string
	Seq    int64
	At     time.Duration
	Target string
}

// String renders one stable log line.
func (e LogEntry) String() string {
	if e.Seq >= 0 {
		return fmt.Sprintf("%s topic=%s seq=%d", e.Kind, e.Topic, e.Seq)
	}
	return fmt.Sprintf("%s at=%s target=%s", e.Kind, e.At, e.Target)
}

// FormatLog renders entries one per line — the byte-identical replay
// artefact the recovery scenario compares across runs.
func FormatLog(entries []LogEntry) string {
	var b strings.Builder
	for _, e := range entries {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ErrInjected is the root of every synthetic scorer failure, so tests
// can tell injected faults from real ones.
var ErrInjected = errors.New("faults: injected failure")

// Injector executes a Plan. Create with New, register Crash/Restart
// handlers with Handle, then Start; Message and ScorerFault are safe
// for concurrent use between Start and Stop.
type Injector struct {
	plan Plan
	// clock is the time source; tests replace the wall clock before
	// Start.
	clock func() time.Time

	mu       sync.Mutex
	seqs     map[string]int64
	byTopic  map[string]map[Kind]int
	log      []LogEntry
	handlers map[Kind][]func(Event)
	onInject func(Kind)
	started  bool
	start    time.Time

	stopCh  chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
}

// New builds an injector for plan. The plan must Validate.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		plan:     plan,
		clock:    time.Now, //lint:allow clockdiscipline the wall-clock default; tests replace it
		seqs:     make(map[string]int64),
		byTopic:  make(map[string]map[Kind]int),
		handlers: make(map[Kind][]func(Event)),
		stopCh:   make(chan struct{}),
	}, nil
}

// Handle registers fn for every timed event of the given kind (Crash,
// Restart). Handlers run synchronously on the scheduler goroutine, in
// registration order. Must be called before Start.
func (i *Injector) Handle(kind Kind, fn func(Event)) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.started {
		panic("faults: Handle after Start")
	}
	i.handlers[kind] = append(i.handlers[kind], fn)
}

// OnInject registers an observer called (outside the injector's lock)
// once per injected fault — the telemetry binding point. Must be called
// before Start.
func (i *Injector) OnInject(fn func(Kind)) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.started {
		panic("faults: OnInject after Start")
	}
	i.onInject = fn
}

// Start stamps time zero, logs every planned timed event, and launches
// the event scheduler. Calling Start twice panics.
func (i *Injector) Start() {
	i.mu.Lock()
	if i.started {
		i.mu.Unlock()
		panic("faults: Start twice")
	}
	i.started = true
	i.start = i.clock()
	timed := expandEvents(i.plan.Events)
	sort.SliceStable(timed, func(a, b int) bool { return timed[a].At < timed[b].At })
	// Timed events are logged up front with planned offsets: the log is
	// a property of the plan, not of scheduler timing.
	for _, ev := range timed {
		i.log = append(i.log, LogEntry{Kind: ev.Kind, Seq: -1, At: ev.At, Target: ev.Target})
	}
	i.mu.Unlock()
	i.wg.Add(1)
	go i.schedule(timed)
}

// Stop halts the scheduler and waits for it. Idempotent; events not yet
// fired are skipped (their log entries remain — the log records the
// plan).
func (i *Injector) Stop() {
	i.stopped.Do(func() { close(i.stopCh) })
	i.wg.Wait()
}

// expandEvents rewrites windowed broker-crash events (Duration > 0)
// into the crash plus a synthesised broker-restart at At+Duration — a
// pure function of the plan, so the expanded schedule (and therefore
// the log) is identical across runs.
func expandEvents(events []Event) []Event {
	out := make([]Event, 0, len(events))
	for _, ev := range events {
		if ev.Kind == BrokerCrash && ev.Duration > 0 {
			restart := ev
			restart.Kind = BrokerRestart
			restart.At = ev.At + ev.Duration
			restart.Duration = 0
			ev.Duration = 0
			out = append(out, ev, restart)
			continue
		}
		out = append(out, ev)
	}
	return out
}

// handledEvent reports whether the scheduler fires registered handlers
// for the kind; the remaining timed kind, ScorerError, needs no firing —
// its window is evaluated lazily against the clock by ScorerFault.
func handledEvent(k Kind) bool {
	return k == Crash || k == Restart || k == BrokerCrash || k == BrokerRestart
}

// schedule fires Crash/Restart and BrokerCrash/BrokerRestart handlers
// at their offsets.
func (i *Injector) schedule(timed []Event) {
	defer i.wg.Done()
	for _, ev := range timed {
		if !handledEvent(ev.Kind) {
			continue
		}
		remaining := ev.At - i.clock().Sub(i.start)
		if remaining > 0 {
			t := time.NewTimer(remaining)
			select {
			case <-i.stopCh:
				t.Stop()
				return
			case <-t.C:
			}
		}
		i.mu.Lock()
		i.count(ev.Kind, "")
		fns := i.handlers[ev.Kind]
		observe := i.onInject
		i.mu.Unlock()
		for _, fn := range fns {
			fn(ev)
		}
		if observe != nil {
			observe(ev.Kind)
		}
	}
}

// count must be called with i.mu held.
func (i *Injector) count(kind Kind, topic string) {
	if topic != "" {
		m := i.byTopic[topic]
		if m == nil {
			m = make(map[Kind]int)
			i.byTopic[topic] = m
		}
		m[kind]++
	}
}

// Message assigns the next sequence number on topic and returns the
// combined verdict of every matching rule. Drop wins over everything;
// Duplicate and Delay combine. Safe before Start (sequence numbering
// does not depend on the clock).
func (i *Injector) Message(topic string) Verdict {
	i.mu.Lock()
	seq := i.seqs[topic]
	i.seqs[topic] = seq + 1
	var v Verdict
	var fired []Kind
	for _, r := range i.plan.Rules {
		if r.Topic != topic || seq < r.FromSeq || (r.ToSeq > 0 && seq >= r.ToSeq) {
			continue
		}
		if r.every > 1 && (seq-r.FromSeq)%r.every != 0 {
			continue
		}
		switch r.Kind {
		case Drop:
			v.Drop = true
		case Duplicate:
			v.Duplicate = true
		case Delay:
			v.Delay += jitterDelay(i.plan.Seed, seq, r.Delay)
		}
		fired = append(fired, r.Kind)
	}
	if v.Drop {
		// A dropped record is only dropped: suppress the combined
		// verdict so accounting stays single-valued per record.
		v.Duplicate = false
		v.Delay = 0
		fired = []Kind{Drop}
	}
	for _, k := range fired {
		i.count(k, topic)
		i.log = append(i.log, LogEntry{Kind: k, Topic: topic, Seq: seq})
	}
	observe := i.onInject
	i.mu.Unlock()
	if observe != nil {
		for _, k := range fired {
			observe(k)
		}
	}
	return v
}

// window reports whether the clock currently sits inside an event
// window of the given kind, returning the matching event.
func (i *Injector) window(kind Kind) (Event, bool) {
	i.mu.Lock()
	started := i.started
	start := i.start
	i.mu.Unlock()
	if !started {
		return Event{}, false
	}
	elapsed := i.clock().Sub(start)
	for _, e := range i.plan.Events {
		if e.Kind == kind && elapsed >= e.At && elapsed < e.At+e.Duration {
			return e, true
		}
	}
	return Event{}, false
}

// ScorerFault returns a retryable injected error while a ScorerError
// window is open, nil otherwise.
func (i *Injector) ScorerFault() error {
	e, ok := i.window(ScorerError)
	if !ok {
		return nil
	}
	i.mu.Lock()
	i.count(ScorerError, "")
	observe := i.onInject
	i.mu.Unlock()
	if observe != nil {
		observe(ScorerError)
	}
	return resilience.MarkRetryable(fmt.Errorf("%w: scorer error window (target %s)", ErrInjected, e.Target))
}

// CountsFor returns a copy of the per-kind totals for one topic.
func (i *Injector) CountsFor(topic string) map[Kind]int {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[Kind]int, len(i.byTopic[topic]))
	for k, n := range i.byTopic[topic] {
		out[k] = n
	}
	return out
}

// Log returns the injection log sorted into its canonical order: timed
// events first (by At, then Kind, then Target), then message faults (by
// Topic, Seq, Kind). Sorting makes the log independent of goroutine
// interleaving between topics.
func (i *Injector) Log() []LogEntry {
	i.mu.Lock()
	out := make([]LogEntry, len(i.log))
	copy(out, i.log)
	i.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool {
		ea, eb := out[a], out[b]
		if (ea.Seq < 0) != (eb.Seq < 0) {
			return ea.Seq < 0
		}
		if ea.Seq < 0 {
			if ea.At != eb.At {
				return ea.At < eb.At
			}
			if ea.Kind != eb.Kind {
				return ea.Kind < eb.Kind
			}
			return ea.Target < eb.Target
		}
		if ea.Topic != eb.Topic {
			return ea.Topic < eb.Topic
		}
		if ea.Seq != eb.Seq {
			return ea.Seq < eb.Seq
		}
		return ea.Kind < eb.Kind
	})
	return out
}

// jitterDelay spreads d over ±25% with a splitmix64-style hash of
// (seed, seq): deterministic and call-order independent.
func jitterDelay(seed, seq int64, d time.Duration) time.Duration {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(seq) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	frac := float64(z>>11) / float64(uint64(1)<<53) // [0,1)
	return time.Duration(float64(d) * (0.75 + 0.5*frac))
}
