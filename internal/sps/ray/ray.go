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

	"crayfish/internal/broker"
	"crayfish/internal/sps"
)

func init() {
	sps.Register("ray", func() sps.Processor { return newEngine() })
}

// engine is the Ray-analogue processor.
type engine struct{}

// mailboxDepth bounds each actor's inbox, and the records one input
// actor polls and one scoring actor drains at a time.
const mailboxDepth = 64

// newEngine returns an engine with default settings.
func newEngine() *engine { return &engine{} }

// pickleCycle performs the per-hop object serialisation round trip Ray's
// actor boundaries pay: the paper's Ray adapter passes the decoded event
// object between Python actors, so every actor boundary pickles and
// unpickles it. The structured event is deserialised into a dynamic
// object by the receiving actor and re-serialised by the next send.
// Non-JSON payloads (engine conformance tests) pass through untouched,
// like raw byte objects in Ray's object store.
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
func (e *engine) Name() string { return "ray" }

type job struct {
	*sps.Running
	store *objectStore
}

// Run implements sps.Processor. Ray has no operator-level parallelism
// knob; mp actors of each type are spawned manually and chained
// one-to-one, as in the paper's setup. Chains beyond the partition
// count get nothing to run. Every chain's clients are built before any
// actor starts, so a failed start leaves nothing running.
func (e *engine) Run(spec sps.JobSpec) (sps.Job, error) {
	run, err := sps.Start(e.Name(), spec)
	if err != nil {
		return nil, err
	}
	j := &job{Running: run, store: newObjectStore()}
	consumers, err := j.Sources(j.Spec.Parallelism.Default)
	if err != nil {
		return nil, err
	}
	producers := make([]*broker.AsyncProducer, 0, len(consumers))
	for range consumers {
		producer, err := broker.NewAsyncProducer(j.Spec.Transport, j.Spec.OutputTopic, mailboxDepth)
		if err != nil {
			for _, c := range consumers {
				_ = c.Close()
			}
			for _, p := range producers {
				_ = p.Close()
			}
			return nil, err
		}
		producers = append(producers, producer)
	}
	for i, consumer := range consumers {
		// The chain is wired back to front so each stage knows its
		// downstream actor.
		output := j.spawn(func(a *actor) { j.outputActor(a, producers[i]) })
		scorer := j.Spec.Submitter(1)
		scoring := j.spawn(func(a *actor) { j.scoringActor(a, output, scorer) })
		j.spawn(func(a *actor) { j.inputActor(a, consumer, scoring) })
	}
	return j, nil
}

// spawn starts an actor running behaviour as one of the job's
// operators. The behaviour returns when the actor is done (its inbox
// closed or its source stopped).
func (j *job) spawn(behaviour func(*actor)) *actor {
	a := &actor{Inbox: make(mailbox, mailboxDepth), store: j.store}
	j.Go(func() { behaviour(a) })
	return a
}

// inputActor consumes Kafka partitions and forwards records downstream.
// On stop it closes its downstream mailbox so the chain drains in order.
func (j *job) inputActor(a *actor, consumer *broker.Consumer, downstream *actor) {
	defer close(downstream.Inbox)
	for {
		recs, ok := j.Poll(consumer, mailboxDepth)
		if !ok {
			return
		}
		for _, rec := range recs {
			a.send(downstream, pickleCycle(rec.Value))
		}
	}
}

// scoringActor applies the transform (embedded) or delegates to an
// external endpoint via the transform closure, then forwards downstream.
// After each blocking receive it opportunistically drains whatever else
// is already queued in its mailbox, so a batching-enabled job scores the
// actor's backlog through one Submitter round instead of record by
// record; without batching the round degrades to the same sequential
// loop as before, and message order is preserved either way.
func (j *job) scoringActor(a *actor, downstream *actor, scorer *sps.Submitter) {
	defer close(downstream.Inbox)
	defer scorer.Close()
	emit := func(scored []byte) { a.send(downstream, pickleCycle(scored)) }
	values := make([][]byte, 0, mailboxDepth)
	for {
		value, ok, err := a.recv()
		if err != nil {
			j.Fail("scoring", err)
			continue
		}
		if !ok {
			return
		}
		values = append(values[:0], value)
	drain:
		for len(values) < mailboxDepth {
			select {
			case ref, more := <-a.Inbox:
				if !more {
					// Channel closed mid-drain: score what we have;
					// the next Recv observes the closure and returns.
					break drain
				}
				v, err := a.store.get(ref)
				if err != nil {
					j.Fail("scoring", err)
					continue
				}
				values = append(values, v)
			default:
				break drain // mailbox momentarily empty
			}
		}
		j.Score(scorer, values, emit)
	}
}

// outputActor writes scored records to the output topic through a
// batching producer (Ray's Kafka client batches sends too).
func (j *job) outputActor(a *actor, producer *broker.AsyncProducer) {
	defer func() { j.Fail("sink", producer.Close()) }()
	for {
		value, ok, err := a.recv()
		if err != nil {
			j.Fail("sink", err)
			continue
		}
		if !ok {
			return
		}
		j.Sent(1, producer.Send(value))
	}
}
