package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/loadgen"
)

func producerHarness(t *testing.T) broker.Transport {
	t.Helper()
	b := broker.New(broker.DefaultConfig())
	if err := b.CreateTopic("in", 4); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestProducerConstantRate(t *testing.T) {
	tr := producerHarness(t)
	w := Workload{
		InputShape: []int{4},
		BatchSize:  2,
		Load:       constantLoad(200),
		Duration:   200 * time.Millisecond,
		Seed:       1,
	}
	p, err := NewInputProducer(tr, "in", w, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 200 ev/s for 200ms ≈ 40 events; allow generous scheduling slack.
	if n < 25 || n > 45 {
		t.Fatalf("produced %d events, want ≈40", n)
	}
	if p.Produced() != n {
		t.Fatalf("Produced() = %d, Run returned %d", p.Produced(), n)
	}
}

func TestProducerMaxEvents(t *testing.T) {
	tr := producerHarness(t)
	w := Workload{
		InputShape: []int{4},
		Duration:   5 * time.Second,
		MaxEvents:  17,
		Seed:       1,
	}
	p, err := NewInputProducer(tr, "in", w, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 17 {
		t.Fatalf("produced %d, want 17", n)
	}
	if time.Since(start) > time.Second {
		t.Fatal("MaxEvents did not stop the producer early")
	}
}

func TestProducerStopChannel(t *testing.T) {
	tr := producerHarness(t)
	w := Workload{InputShape: []int{4}, Load: constantLoad(10), Duration: time.Hour, Seed: 1}
	p, err := NewInputProducer(tr, "in", w, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		n, _ := p.Run(stop)
		done <- n
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("producer ignored stop")
	}
}

// slowProduce charges every produce call cost on a virtual clock: the
// flush before each paced wait takes time.
type slowProduce struct {
	broker.Transport
	now  *time.Time
	cost time.Duration
}

func (s slowProduce) Produce(topic string, partition int, recs []broker.Record) (int64, error) {
	*s.now = s.now.Add(s.cost)
	return s.Transport.Produce(topic, partition, recs)
}

// TestProducerIssuesAtDueAfterFlush: the producer flushes its pending
// batch before it waits for the next event, and that flush does not make
// the event late. On a virtual clock where each flush takes 0.3 ms, every
// paced wait ends at the event's due instant, not 0.3 ms after it.
func TestProducerIssuesAtDueAfterFlush(t *testing.T) {
	now := time.Now()
	tr := slowProduce{Transport: producerHarness(t), now: &now, cost: 300 * time.Microsecond}
	w := Workload{InputShape: []int{4}, Load: constantLoad(1000), Duration: time.Hour, MaxEvents: 20, Seed: 1}
	p, err := NewInputProducer(tr, "in", w, nil)
	if err != nil {
		t.Fatal(err)
	}
	var issued []time.Duration
	start := now
	p.Clock = loadgen.Clock{
		Now: func() time.Time { return now },
		WaitUntil: func(due time.Time, _ <-chan struct{}) bool {
			if due.After(now) {
				now = due
			}
			issued = append(issued, now.Sub(start))
			return true
		},
	}
	if _, err := p.Run(nil); err != nil {
		t.Fatal(err)
	}
	if len(issued) != 19 {
		t.Fatalf("%d paced waits, want one per event after the first (19)", len(issued))
	}
	for i, at := range issued {
		if want := time.Duration(i+1) * time.Millisecond; at != want {
			t.Fatalf("event %d issued at +%v, want its due time +%v", i+1, at, want)
		}
	}
}

func TestProducerBatchContents(t *testing.T) {
	tr := producerHarness(t)
	w := Workload{InputShape: []int{3, 2}, BatchSize: 4, Duration: time.Second, MaxEvents: 3, Seed: 9}
	p, err := NewInputProducer(tr, "in", w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(nil); err != nil {
		t.Fatal(err)
	}
	c, err := broker.NewAssignedConsumer(tr, "in")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for len(seen) < 3 {
		recs, err := c.Poll(8, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, rec := range recs {
			b, err := unmarshalJSONBatch(rec.Value)
			if err != nil {
				t.Fatal(err)
			}
			if b.Count != 4 || len(b.Inputs) != 4*6 {
				t.Fatalf("batch %d: count %d inputs %d", b.ID, b.Count, len(b.Inputs))
			}
			if !rec.Timestamp.Equal(b.Created()) {
				t.Fatal("record CreateTime differs from batch creation timestamp")
			}
			seen[b.ID] = true
		}
	}
	if len(seen) != 3 {
		t.Fatalf("saw %d distinct batches", len(seen))
	}
}

func TestProducerBurstRateSchedule(t *testing.T) {
	// Figure 8's periodic burst: 1000 ev/s for bd = 30 ms, then 100 ev/s
	// for the rest of tbb = 100 ms, repeating.
	burst := loadgen.Phased(0,
		loadgen.Phase{Duration: 30 * time.Millisecond, Rate: 1000},
		loadgen.Phase{Duration: 70 * time.Millisecond, Rate: 100},
	)
	w := Workload{InputShape: []int{4}, Load: &burst, Duration: time.Second}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := w.loadPolicy().Schedule()
	if err != nil {
		t.Fatal(err)
	}
	rateAt := func(want time.Duration) float64 {
		// Walk a fresh cursor until the schedule passes the offset.
		for {
			off, rate, ok := s.Next()
			if !ok {
				t.Fatalf("schedule ended before %v", want)
			}
			if off >= want {
				return rate
			}
		}
	}
	if got := rateAt(5 * time.Millisecond); got != 1000 {
		t.Fatalf("rate in burst = %v", got)
	}
	if got := rateAt(40 * time.Millisecond); got != 100 {
		t.Fatalf("rate between bursts = %v", got)
	}
	// Second cycle: burst again.
	if got := rateAt(101 * time.Millisecond); got != 1000 {
		t.Fatalf("rate in second burst = %v", got)
	}
}

func TestWorkloadValidation(t *testing.T) {
	bad := Workload{}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty shape accepted")
	}
	bad = Workload{InputShape: []int{0}}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-size shape accepted")
	}
	bad = Workload{InputShape: []int{4}, Load: &loadgen.Policy{Process: loadgen.ProcessConstant}}
	if err := bad.Validate(); err == nil {
		t.Fatal("constant load without a rate accepted")
	}
	good := Workload{InputShape: []int{4}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.BatchSize != 1 || good.Duration != time.Second {
		t.Fatalf("defaults not applied: %+v", good)
	}
	if !reflect.DeepEqual(good.loadPolicy(), loadgen.Saturate()) {
		t.Fatalf("nil Load is %+v, want saturation", good.loadPolicy())
	}
}

func TestDataGeneratorDeterministic(t *testing.T) {
	w := Workload{InputShape: []int{8}, BatchSize: 2, Seed: 5, Duration: time.Second}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	a := newDataGenerator(w).next(0)
	b := newDataGenerator(w).next(0)
	for i := range a.Inputs {
		if a.Inputs[i] != b.Inputs[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := newDataGenerator(Workload{InputShape: []int{8}, BatchSize: 2, Seed: 6}).next(0)
	same := true
	for i := range a.Inputs {
		if a.Inputs[i] != c.Inputs[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

// zeroCreated returns rec with its created_ns set to 0.
func zeroCreated(t *testing.T, codec BatchCodec, rec []byte) []byte {
	t.Helper()
	_, created, err := stamp(codec, rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := codec.(BinaryCodec); ok {
		out := bytes.Clone(rec)
		clear(out[8:16])
		return out
	}
	field := `,"created_ns":`
	return bytes.Replace(rec, []byte(field+strconv.FormatInt(created, 10)+","), []byte(field+"0,"), 1)
}

// TestSamplePool: the pool changes what a record costs, not what it is.
// Until the budget is full, event id is the generator's id-th batch
// formatted; after it, event id repeats event id mod P; two pools of one
// seed write the same records; and with a dataset every record is the
// dataset batch the generator would have formatted.
func TestSamplePool(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := &dataset{PointLen: 784, Points: make([][]float32, 300)}
	for i := range ds.Points {
		ds.Points[i] = make([]float32, ds.PointLen)
		for j := range ds.Points[i] {
			ds.Points[i][j] = rng.Float32()
		}
	}
	datasetCut := false
	for _, codec := range []BatchCodec{JSONCodec{}, BinaryCodec{}} {
		for _, bsz := range []int{1, 4} {
			w := Workload{InputShape: []int{28, 28}, BatchSize: bsz, Seed: 3}
			if err := w.Validate(); err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/bsz%d", codec.Name(), bsz), func(t *testing.T) {
				pool, replay := newSamplePool(w, nil, codec), newSamplePool(w, nil, codec)
				gen := newDataGenerator(w)
				var firsts []*DataBatch
				for id := int64(0); !pool.full || id < 3*int64(len(pool.slots)); id++ {
					rec, created, err := pool.record(id)
					if err != nil {
						t.Fatal(err)
					}
					if gotID, gotCreated, err := stamp(codec, rec); err != nil || gotID != id || gotCreated != created {
						t.Fatalf("event %d: record carries id %d, created_ns %d (err %v); want %d, %d", id, gotID, gotCreated, err, id, created)
					}
					var want *DataBatch
					if pool.full && id >= int64(len(pool.slots)) {
						b := *firsts[id%int64(len(pool.slots))]
						b.ID = id
						want = &b
					} else {
						want = gen.next(id)
						firsts = append(firsts, want)
					}
					wantRec, err := codec.Marshal(want)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(zeroCreated(t, codec, rec), zeroCreated(t, codec, wantRec)) {
						t.Fatalf("event %d (P %d, full %v) is not the generator's batch", id, len(pool.slots), pool.full)
					}
					again, _, err := replay.record(id)
					if err != nil || !bytes.Equal(zeroCreated(t, codec, again), zeroCreated(t, codec, rec)) {
						t.Fatalf("event %d differs between two pools of one seed (err %v)", id, err)
					}
				}
				if pool.held < poolBudget || len(pool.slots) < 2 {
					t.Fatalf("pool full at %d samples holding %d bytes, budget %d", len(pool.slots), pool.held, poolBudget)
				}
			})
			t.Run(fmt.Sprintf("%s/bsz%d/dataset", codec.Name(), bsz), func(t *testing.T) {
				pool := newSamplePool(w, ds, codec)
				gen := newDataGenerator(w)
				gen.dataset = ds
				for id := int64(0); id < 2*pool.period+8; id++ {
					rec, _, err := pool.record(id)
					if err != nil {
						t.Fatal(err)
					}
					want, err := codec.Marshal(gen.next(id))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(zeroCreated(t, codec, rec), zeroCreated(t, codec, want)) {
						t.Fatalf("event %d is not the dataset's batch", id)
					}
				}
				if len(pool.slots) < int(pool.period) {
					datasetCut = true
				}
			})
		}
	}
	if !datasetCut {
		t.Fatal("no dataset run filled the budget before the dataset cycled: the formatted slots went untested")
	}
}

func BenchmarkProducerRecord(b *testing.B) {
	w := Workload{InputShape: []int{28, 28}, Seed: 1}
	if err := w.Validate(); err != nil {
		b.Fatal(err)
	}
	// Steady state: every sample is in the pool.
	b.Run("pool", func(b *testing.B) {
		b.ReportAllocs()
		pool := newSamplePool(w, nil, JSONCodec{})
		var id int64
		for ; !pool.full; id++ {
			if _, _, err := pool.record(id); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchBytes, _, _ = pool.record(id)
			id++
		}
	})
	// The twin: draw and format every event.
	b.Run("format", func(b *testing.B) {
		b.ReportAllocs()
		gen := newDataGenerator(w)
		for i := 0; i < b.N; i++ {
			benchBytes, _ = marshalJSONBatch(gen.next(int64(i)))
		}
	})
}

func TestConsumerLatencyFromAppendTime(t *testing.T) {
	// The end timestamp must be the broker's LogAppendTime, not the
	// consumer's read time.
	b := broker.New(broker.DefaultConfig())
	if err := b.CreateTopic("out", 1); err != nil {
		t.Fatal(err)
	}
	oc, err := NewOutputConsumer(b, "out", nil)
	if err != nil {
		t.Fatal(err)
	}
	created := time.Now().Add(-30 * time.Millisecond)
	batch := &DataBatch{ID: 1, CreatedNanos: created.UnixNano(), Count: 1, Inputs: []float32{1}}
	value, err := marshalJSONBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Produce("out", 0, []broker.Record{{Value: value}}); err != nil {
		t.Fatal(err)
	}
	recs, err := b.Fetch("out", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // the read comes visibly after the append
	if _, err := oc.pollOnce(0, nil); err != nil {
		t.Fatal(err)
	}
	samples := oc.Samples()
	if len(samples) != 1 {
		t.Fatalf("samples %d", len(samples))
	}
	if want := recs[0].AppendTime.Sub(time.Unix(0, created.UnixNano())); samples[0].Latency != want {
		t.Fatalf("latency %v, want %v exactly (from LogAppendTime)", samples[0].Latency, want)
	}
}

func TestConsumerDeduplicates(t *testing.T) {
	b := broker.New(broker.DefaultConfig())
	if err := b.CreateTopic("out", 1); err != nil {
		t.Fatal(err)
	}
	oc, err := NewOutputConsumer(b, "out", nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := &DataBatch{ID: 7, CreatedNanos: time.Now().UnixNano(), Count: 1, Inputs: []float32{1}}
	value, _ := marshalJSONBatch(batch)
	for i := 0; i < 3; i++ {
		if _, err := b.Produce("out", 0, []broker.Record{{Value: value}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := oc.pollOnce(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(oc.Samples()) != 1 || oc.Duplicates() != 2 {
		t.Fatalf("samples %d dupes %d", len(oc.Samples()), oc.Duplicates())
	}
}
