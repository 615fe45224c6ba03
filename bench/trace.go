package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/core"
	"crayfish/internal/serving"
	"crayfish/internal/sps"
)

// The traced run times the product from outside: every wrapper below
// sits at an interface boundary the product already has
// (broker.Transport, core.BatchCodec, serving.Scorer, sps.Transform),
// so the program needs no hook, flag or env var for it. Spans stay in
// memory and are written when the run is over.

// span is one timed call. Spans of one event share its Event ID; span
// IDs and parents are assigned when the file is written, where every
// call span of a single event hangs under that event's root.
type span struct {
	Name  string
	Event int64 // DataBatch.ID; -1 when the call serves several events or none
	Start int64 // ns since the trace origin
	End   int64
	N     int // records or points the call carried, when that is not 1
}

// eventTimes are the boundaries one event crosses, in ns since the
// trace origin; zero means not seen. Every field has one writer at a
// time and is read only after the pipeline has stopped.
type eventTimes struct {
	created  int64 // producer stamp carried in the DataBatch
	appendIn int64 // broker append time of the input record
	decode0  int64
	decode1  int64
	encode0  int64
	encode1  int64
}

// callStats accumulates one kind of call without a lock.
type callStats struct {
	calls atomic.Int64
	ns    atomic.Int64
	items atomic.Int64 // records, points or bytes, as the owner defines
}

func (c *callStats) add(ns int64, items int) {
	c.calls.Add(1)
	c.ns.Add(ns)
	c.items.Add(int64(items))
}

type tracer struct {
	origin time.Time

	events []eventTimes // by DataBatch.ID

	mu    sync.Mutex
	spans []span

	// Input-topic bookkeeping joins broker records to event IDs: the
	// producer is one goroutine sending IDs in order, so the k-th record
	// it appends is event k. Fetches are logged by (partition, offset)
	// and joined after the run, because a fetch can see a record before
	// the Produce call that appended it has returned.
	inMu     sync.Mutex
	nextID   int64
	inIDs    [][]int64 // [partition][offset] → event ID
	inAppend [][]int64 // [partition][offset] → broker append time, as fetched

	// Pointer maps carry an event's identity across calls that only
	// hand on a slice: the record value from the transform wrapper to
	// the codec, the decoded inputs from the codec to the scorer.
	ptrMu    sync.Mutex
	byValue  map[*byte]*span
	byInputs map[*float32]int64

	produce, fetch, emptyFetch, otherCalls callStats // broker, all topics
	inputSend                              callStats // Produce on the input topic only
	marshal, unmarshal                     callStats // items = bytes
	transform, batchTransform              callStats // items = records
	score                                  callStats // items = points
	scoreErrs                              atomic.Int64

	// Every checkEvery-th scored batch, up to maxChecks of them, is kept
	// for the output check.
	checkEvery int
	maxChecks  int
	checkMu    sync.Mutex
	toCheck    []*core.DataBatch
}

func newTracer(maxEvents, parts, checkEvery, maxChecks int) *tracer {
	return &tracer{
		origin:     time.Now(),
		events:     make([]eventTimes, maxEvents),
		inIDs:      make([][]int64, parts),
		inAppend:   make([][]int64, parts),
		byValue:    make(map[*byte]*span),
		byInputs:   make(map[*float32]int64),
		checkEvery: checkEvery,
		maxChecks:  maxChecks,
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// at converts a timestamp taken elsewhere (broker append time, producer
// stamp) to the trace clock.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.origin)) }

func (t *tracer) event(id int64) *eventTimes {
	if id < 0 || id >= int64(len(t.events)) {
		return nil
	}
	return &t.events[id]
}

func (t *tracer) addSpan(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// ---- broker.Transport ----

type tracedTransport struct {
	broker.Transport
	tr *tracer
}

// wrapTransport times every call into the broker. The result implements
// exactly the optional interfaces inner does: a wrapper that hid
// AppendSignal or FetchMultiInto would push consumers onto the timed
// re-poll and allocating-fetch fallbacks and measure a different
// program.
func wrapTransport(inner broker.Transport, tr *tracer) broker.Transport {
	base := &tracedTransport{Transport: inner, tr: tr}
	notifier, isNotifier := inner.(broker.AppendNotifier)
	fetcher, isFetcher := inner.(broker.MultiFetcherInto)
	into := tracedFetcherInto{base: base, inner: fetcher}
	switch {
	case isNotifier && isFetcher:
		return struct {
			*tracedTransport
			broker.AppendNotifier
			tracedFetcherInto
		}{base, notifier, into}
	case isNotifier:
		return struct {
			*tracedTransport
			broker.AppendNotifier
		}{base, notifier}
	case isFetcher:
		return struct {
			*tracedTransport
			tracedFetcherInto
		}{base, into}
	}
	return base
}

func (t *tracedTransport) Produce(topic string, partition int, recs []broker.Record) (int64, error) {
	start := t.tr.now()
	off, err := t.Transport.Produce(topic, partition, recs)
	end := t.tr.now()
	t.tr.produce.add(end-start, len(recs))
	if topic == core.InputTopic {
		t.tr.inputSend.add(end-start, len(recs))
		if err == nil {
			t.tr.noteProduced(partition, off, len(recs))
		}
	}
	t.tr.addSpan(span{Name: "broker.produce:" + topic, Event: -1, Start: start, End: end, N: len(recs)})
	return off, err
}

func (t *tracedTransport) Fetch(topic string, partition int, offset int64, max int) ([]broker.Record, error) {
	start := t.tr.now()
	recs, err := t.Transport.Fetch(topic, partition, offset, max)
	t.fetched(topic, start, recs)
	return recs, err
}

func (t *tracedTransport) FetchMulti(topic string, reqs []broker.FetchRequest, maxTotal int) ([]broker.Record, error) {
	start := t.tr.now()
	recs, err := t.Transport.FetchMulti(topic, reqs, maxTotal)
	t.fetched(topic, start, recs)
	return recs, err
}

// fetched books one fetch call. Empty polls are counted, not kept as
// spans: an idle consumer makes thousands a second.
func (t *tracedTransport) fetched(topic string, start int64, recs []broker.Record) {
	end := t.tr.now()
	t.tr.fetch.add(end-start, len(recs))
	if len(recs) == 0 {
		t.tr.emptyFetch.add(end-start, 0)
		return
	}
	if topic == core.InputTopic {
		t.tr.noteFetched(recs)
	}
	t.tr.addSpan(span{Name: "broker.fetch:" + topic, Event: -1, Start: start, End: end, N: len(recs)})
}

// The remaining Transport calls (group membership, offsets, topic
// admin) are counted and timed as one class.
func (t *tracedTransport) other(start int64) { t.tr.otherCalls.add(t.tr.now()-start, 0) }

func (t *tracedTransport) CreateTopic(name string, partitions int) error {
	defer t.other(t.tr.now())
	return t.Transport.CreateTopic(name, partitions)
}

func (t *tracedTransport) DeleteTopic(name string) error {
	defer t.other(t.tr.now())
	return t.Transport.DeleteTopic(name)
}

func (t *tracedTransport) Partitions(topic string) (int, error) {
	defer t.other(t.tr.now())
	return t.Transport.Partitions(topic)
}

func (t *tracedTransport) EndOffset(topic string, partition int) (int64, error) {
	defer t.other(t.tr.now())
	return t.Transport.EndOffset(topic, partition)
}

func (t *tracedTransport) JoinGroup(group string, topics []string) (broker.Assignment, error) {
	defer t.other(t.tr.now())
	return t.Transport.JoinGroup(group, topics)
}

func (t *tracedTransport) LeaveGroup(group, memberID string) error {
	defer t.other(t.tr.now())
	return t.Transport.LeaveGroup(group, memberID)
}

func (t *tracedTransport) FetchAssignment(group, memberID string, generation int) (broker.Assignment, error) {
	defer t.other(t.tr.now())
	return t.Transport.FetchAssignment(group, memberID, generation)
}

func (t *tracedTransport) CommitOffset(group string, tp broker.TopicPartition, offset int64) error {
	defer t.other(t.tr.now())
	return t.Transport.CommitOffset(group, tp, offset)
}

func (t *tracedTransport) CommittedOffset(group string, tp broker.TopicPartition) (int64, error) {
	defer t.other(t.tr.now())
	return t.Transport.CommittedOffset(group, tp)
}

// tracedFetcherInto is the allocation-free fetch, timed like the rest.
type tracedFetcherInto struct {
	base  *tracedTransport
	inner broker.MultiFetcherInto
}

func (f tracedFetcherInto) FetchMultiInto(topic string, reqs []broker.FetchRequest, maxTotal int, out []broker.Record) ([]broker.Record, error) {
	start := f.base.tr.now()
	recs, err := f.inner.FetchMultiInto(topic, reqs, maxTotal, out)
	f.base.fetched(topic, start, recs)
	return recs, err
}

func (t *tracer) noteProduced(partition int, base int64, n int) {
	t.inMu.Lock()
	defer t.inMu.Unlock()
	if partition < 0 || partition >= len(t.inIDs) {
		return
	}
	ids := t.inIDs[partition]
	for int64(len(ids)) < base+int64(n) {
		ids = append(ids, -1)
	}
	for i := 0; i < n; i++ {
		ids[base+int64(i)] = t.nextID
		t.nextID++
	}
	t.inIDs[partition] = ids
}

func (t *tracer) noteFetched(recs []broker.Record) {
	t.inMu.Lock()
	defer t.inMu.Unlock()
	for i := range recs {
		p, off := recs[i].Partition, recs[i].Offset
		if p < 0 || p >= len(t.inAppend) || off < 0 {
			continue
		}
		log := t.inAppend[p]
		for int64(len(log)) <= off {
			log = append(log, 0)
		}
		log[off] = t.at(recs[i].AppendTime)
		t.inAppend[p] = log
	}
}

// joinInput copies what the fetches saw onto the events, once the
// pipeline has stopped.
func (t *tracer) joinInput() {
	t.inMu.Lock()
	defer t.inMu.Unlock()
	for p, ids := range t.inIDs {
		for off, id := range ids {
			if ev := t.event(id); ev != nil && off < len(t.inAppend[p]) {
				ev.appendIn = t.inAppend[p][off]
			}
		}
	}
}

// ---- core.BatchCodec ----

type codecRole int

const (
	roleProducer codecRole = iota
	roleSUT
	roleConsumer
)

// tracedCodec times the pipeline serialisation. Each component gets its
// own instance so a call is known to be the producer's marshal, the
// scoring operator's decode and encode, or the consumer's unmarshal.
// core.BatchCodec has no optional extension the product asserts for,
// so there is nothing further to forward.
type tracedCodec struct {
	inner core.BatchCodec
	role  codecRole
	tr    *tracer
}

func (c *tracedCodec) Name() string { return c.inner.Name() }

func (c *tracedCodec) Marshal(b *core.DataBatch) ([]byte, error) {
	start := c.tr.now()
	out, err := c.inner.Marshal(b)
	end := c.tr.now()
	c.tr.marshal.add(end-start, len(out))
	switch c.role {
	case roleProducer:
		if ev := c.tr.event(b.ID); ev != nil {
			ev.created = c.tr.at(b.Created())
		}
		c.tr.addSpan(span{Name: "core.marshal:producer", Event: b.ID, Start: start, End: end})
	case roleSUT:
		if ev := c.tr.event(b.ID); ev != nil {
			ev.encode0, ev.encode1 = start, end
		}
		if len(b.Inputs) > 0 {
			c.tr.ptrMu.Lock()
			delete(c.tr.byInputs, &b.Inputs[0])
			c.tr.ptrMu.Unlock()
		}
	}
	return out, err
}

func (c *tracedCodec) Unmarshal(data []byte) (*core.DataBatch, error) {
	start := c.tr.now()
	b, err := c.inner.Unmarshal(data)
	end := c.tr.now()
	c.tr.unmarshal.add(end-start, len(data))
	if err != nil {
		return b, err
	}
	switch c.role {
	case roleSUT:
		if ev := c.tr.event(b.ID); ev != nil {
			ev.decode0, ev.decode1 = start, end
		}
		c.tr.ptrMu.Lock()
		if len(data) > 0 {
			if s := c.tr.byValue[&data[0]]; s != nil {
				s.Event = b.ID
			}
		}
		if len(b.Inputs) > 0 {
			c.tr.byInputs[&b.Inputs[0]] = b.ID
		}
		c.tr.ptrMu.Unlock()
	case roleConsumer:
		c.tr.addSpan(span{Name: "core.unmarshal:consumer", Event: b.ID, Start: start, End: end})
		if c.tr.checkEvery > 0 && b.ID%int64(c.tr.checkEvery) == 0 {
			c.tr.checkMu.Lock()
			if len(c.tr.toCheck) < c.tr.maxChecks {
				c.tr.toCheck = append(c.tr.toCheck, b)
			}
			c.tr.checkMu.Unlock()
		}
	}
	return b, nil
}

// ---- serving.Scorer ----

type tracedScorer struct {
	serving.Scorer
	tr *tracer
}

// wrapScorer times Score. Like wrapTransport it forwards exactly the
// optional interfaces inner has: serving.Instrument looks for
// ArenaStatser, and owners of a runtime or client look for Closer.
func wrapScorer(inner serving.Scorer, tr *tracer) serving.Scorer {
	base := &tracedScorer{Scorer: inner, tr: tr}
	closer, isCloser := inner.(serving.Closer)
	arena, isArena := inner.(serving.ArenaStatser)
	switch {
	case isCloser && isArena:
		return struct {
			*tracedScorer
			serving.Closer
			serving.ArenaStatser
		}{base, closer, arena}
	case isCloser:
		return struct {
			*tracedScorer
			serving.Closer
		}{base, closer}
	case isArena:
		return struct {
			*tracedScorer
			serving.ArenaStatser
		}{base, arena}
	}
	return base
}

// Score implements serving.Scorer.
//
//lint:lent inputs
func (s *tracedScorer) Score(inputs []float32, n int) ([]float32, error) {
	event := int64(-1)
	if len(inputs) > 0 {
		s.tr.ptrMu.Lock()
		if id, ok := s.tr.byInputs[&inputs[0]]; ok {
			event = id
		}
		s.tr.ptrMu.Unlock()
	}
	start := s.tr.now()
	out, err := s.Scorer.Score(inputs, n)
	end := s.tr.now()
	s.tr.score.add(end-start, n)
	if err != nil {
		s.tr.scoreErrs.Add(1)
	}
	s.tr.addSpan(span{Name: "serving.score", Event: event, Start: start, End: end, N: n})
	return out, err
}

// ---- sps.Transform ----

func (t *tracer) wrapTransform(inner sps.Transform) sps.Transform {
	return func(value []byte) ([]byte, error) {
		s := &span{Name: "sps.transform", Event: -1}
		if len(value) > 0 {
			t.ptrMu.Lock()
			t.byValue[&value[0]] = s
			t.ptrMu.Unlock()
		}
		s.Start = t.now()
		out, err := inner(value)
		s.End = t.now()
		if len(value) > 0 {
			t.ptrMu.Lock()
			delete(t.byValue, &value[0])
			t.ptrMu.Unlock()
		}
		t.transform.add(s.End-s.Start, 1)
		t.addSpan(*s)
		return out, err
	}
}

func (t *tracer) wrapBatchTransform(inner sps.BatchTransform) sps.BatchTransform {
	return func(values [][]byte) ([][]byte, error) {
		start := t.now()
		outs, err := inner(values)
		end := t.now()
		t.batchTransform.add(end-start, len(values))
		t.addSpan(span{Name: "sps.batch_transform", Event: -1, Start: start, End: end, N: len(values)})
		return outs, err
	}
}

// ---- output ----

// stageNames are the seven contiguous per-event stages; they sum to the
// event's latency from its due time.
var stageNames = [...]string{"late", "produce", "source", "decode", "score", "encode", "sink"}

// writeSpans writes one JSON object per span: the event roots and their
// seven stage children first, then the call spans, parented to their
// event's root where the call served one event.
func (t *tracer) writeSpans(path string, evs []tracedEvent) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	id := 0
	emit := func(parent int, name string, event, start, end int64, n int) int {
		id++
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"event":%d,"start_ns":%d,"end_ns":%d,"n":%d}`+"\n", id, parent, name, event, start, end, n)
		return id
	}
	roots := make(map[int64]int, len(evs))
	for _, e := range evs {
		root := emit(0, "event", e.id, e.bounds[0], e.bounds[len(e.bounds)-1], 1)
		roots[e.id] = root
		for i, name := range stageNames {
			emit(root, "stage."+name, e.id, e.bounds[i], e.bounds[i+1], 1)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		n := s.N
		if n == 0 {
			n = 1
		}
		emit(roots[s.Event], s.Name, s.Event, s.Start, s.End, n)
	}
	return w.Flush()
}
