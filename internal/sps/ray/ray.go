// Package ray implements the Ray analogue: an actor-based distributed
// computing framework (§3.4.4). The Crayfish pipeline becomes a chain of
// actor types — mp input actors consuming Kafka partitions, mp scoring
// actors, and mp output actors writing back to Kafka — wired one-to-one
// as the paper's scaling setup describes (§4.3). Every hop between actors
// moves its payload through the shared object store (two copies plus
// store synchronisation), which is what Ray's task/actor data plane costs.
package ray

import (
	"encoding/json"
	"fmt"
	"sync"

	"crayfish/internal/broker"
	"crayfish/internal/sps"
)

func init() {
	sps.Register("ray", func() sps.Processor { return New() })
}

// Engine is the Ray-analogue processor.
type Engine struct {
	// MailboxDepth bounds each actor's inbox.
	MailboxDepth int
	// PickleHops enables the per-hop object (un)marshalling cost: the
	// paper's Ray adapter passes the decoded event object between
	// Python actors, so every actor boundary pickles and unpickles it.
	// Modelled here as a real JSON decode + encode cycle per hop.
	PickleHops bool
}

// New returns an engine with default settings.
func New() *Engine {
	return &Engine{MailboxDepth: 64, PickleHops: true}
}

// pickleCycle performs the per-hop object serialisation round trip Ray's
// actor boundaries pay: the structured event is deserialised into a
// dynamic object by the receiving actor and re-serialised by the next
// send. Non-JSON payloads (engine conformance tests) pass through
// untouched, like raw byte objects in Ray's object store.
//
// This is deliberately generic encoding/json through a dynamic map, not
// core's schema-specialised DataBatch codec: the reflective round trip
// is the Python pickling cost being modelled (DESIGN.md).
func pickleCycle(value []byte) []byte {
	var obj map[string]any
	if err := json.Unmarshal(value, &obj); err != nil {
		return value
	}
	out, err := json.Marshal(obj)
	if err != nil {
		return value
	}
	return out
}

// Name implements sps.Processor.
func (e *Engine) Name() string { return "ray" }

type job struct {
	e    *Engine
	spec sps.JobSpec
	sys  *System

	stopCh  chan struct{}
	stopped sync.Once
	errs    sps.ErrTracker
}

// Run implements sps.Processor. Ray has no operator-level parallelism
// knob; mp actors of each type are spawned manually and chained
// one-to-one, as in the paper's setup.
func (e *Engine) Run(spec sps.JobSpec) (sps.Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	mp := spec.Parallelism.Score
	parts, err := spec.Transport.Partitions(spec.InputTopic)
	if err != nil {
		return nil, err
	}
	split := make([][]int, mp)
	for p := 0; p < parts; p++ {
		split[p%mp] = append(split[p%mp], p)
	}

	j := &job{e: e, spec: spec, sys: NewSystem(), stopCh: make(chan struct{})}
	for i := 0; i < mp; i++ {
		if len(split[i]) == 0 {
			continue
		}
		consumer, err := broker.NewAssignedConsumer(spec.Transport, spec.InputTopic, split[i]...)
		if err != nil {
			return nil, err
		}
		producer, err := broker.NewAsyncProducer(spec.Transport, spec.OutputTopic, e.MailboxDepth)
		if err != nil {
			return nil, err
		}
		// The chain is wired back to front so each stage knows its
		// downstream actor.
		output := j.sys.Spawn(fmt.Sprintf("output-%d", i), e.MailboxDepth, func(a *Actor) {
			j.outputActor(a, producer)
		})
		scoring := j.sys.Spawn(fmt.Sprintf("scoring-%d", i), e.MailboxDepth, func(a *Actor) {
			j.scoringActor(a, output)
		})
		j.sys.Spawn(fmt.Sprintf("input-%d", i), e.MailboxDepth, func(a *Actor) {
			j.inputActor(a, consumer, scoring)
		})
	}
	return j, nil
}

func (j *job) Stop() error {
	j.stopped.Do(func() { close(j.stopCh) })
	j.sys.Wait()
	j.spec.CloseBatching()
	return j.errs.Get()
}

func (j *job) Err() error { return j.errs.Get() }

func (j *job) ErrSignal() <-chan struct{} { return j.errs.Signal() }

// storeLen exposes the object-store population for leak tests.
func (j *job) storeLen() int { return j.sys.Store().Len() }

// inputActor consumes Kafka partitions and forwards records downstream.
// On stop it closes its downstream mailbox so the chain drains in order.
func (j *job) inputActor(a *Actor, consumer *broker.Consumer, downstream *Actor) {
	defer close(downstream.Inbox)
	max := j.spec.PollMax
	if max <= 0 {
		max = j.e.MailboxDepth
	}
	stages := j.spec.Stages()
	for {
		select {
		case <-j.stopCh:
			return
		default:
		}
		recs, err := consumer.Poll(max, broker.FetchMaxWait, j.stopCh)
		if err != nil {
			j.errs.Set(fmt.Errorf("ray: input actor: %w", err))
			return
		}
		if len(recs) == 0 {
			continue
		}
		stages.In.Add(int64(len(recs)))
		for _, rec := range recs {
			value := rec.Value
			if j.e.PickleHops {
				value = pickleCycle(value)
			}
			a.Send(downstream, value)
		}
	}
}

// scoringActor applies the transform (embedded) or delegates to an
// external endpoint via the transform closure, then forwards downstream.
// After each blocking receive it opportunistically drains whatever else
// is already queued in its mailbox, so a batching-enabled job scores the
// actor's backlog through one TransformMany round instead of record by
// record; without batching the round degrades to the same sequential
// loop as before, and message order is preserved either way.
func (j *job) scoringActor(a *Actor, downstream *Actor) {
	defer close(downstream.Inbox)
	stages := j.spec.Stages()
	values := make([][]byte, 0, j.e.MailboxDepth)
	for {
		value, ok, err := a.Recv()
		if err != nil {
			j.errs.Set(fmt.Errorf("ray: scoring actor: %w", err))
			continue
		}
		if !ok {
			return
		}
		values = append(values[:0], value)
	drain:
		for len(values) < j.e.MailboxDepth {
			select {
			case ref, more := <-a.Inbox:
				if !more {
					// Channel closed mid-drain: score what we have;
					// the next Recv observes the closure and returns.
					break drain
				}
				v, err := a.store.Get(ref)
				if err != nil {
					j.errs.Set(fmt.Errorf("ray: scoring actor: %w", err))
					continue
				}
				values = append(values, v)
			default:
				break drain // mailbox momentarily empty
			}
		}
		scoredAll, scoreErrs := j.spec.TransformMany(values)
		for i := range values {
			if err := scoreErrs[i]; err != nil {
				j.errs.Set(fmt.Errorf("ray: scoring actor: %w", err))
				stages.Dropped.Inc()
				continue
			}
			scored := scoredAll[i]
			if j.e.PickleHops {
				scored = pickleCycle(scored)
			}
			a.Send(downstream, scored)
		}
	}
}

// outputActor writes scored records to the output topic through a
// batching producer (Ray's Kafka client batches sends too).
func (j *job) outputActor(a *Actor, producer *broker.AsyncProducer) {
	defer func() {
		if err := producer.Close(); err != nil {
			j.errs.Set(fmt.Errorf("ray: output actor: %w", err))
		}
	}()
	stages := j.spec.Stages()
	for {
		value, ok, err := a.Recv()
		if err != nil {
			j.errs.Set(fmt.Errorf("ray: output actor: %w", err))
			continue
		}
		if !ok {
			return
		}
		if err := producer.Send(value); err != nil {
			j.errs.Set(fmt.Errorf("ray: output actor: %w", err))
			stages.Dropped.Inc()
			continue
		}
		stages.Out.Inc()
	}
}
