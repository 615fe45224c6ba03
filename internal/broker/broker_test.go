package broker

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"crayfish/internal/resilience"
)

func newTestBroker(t *testing.T) *Broker {
	t.Helper()
	b := New(DefaultConfig())
	if err := b.CreateTopic("in", 4); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCreateTopicValidation(t *testing.T) {
	b := New(Config{})
	if err := b.CreateTopic("t", 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 2); !errors.Is(err, ErrTopicExists) {
		t.Fatalf("duplicate topic: %v", err)
	}
	n, err := b.Partitions("t")
	if err != nil || n != 2 {
		t.Fatalf("Partitions = %d, %v", n, err)
	}
	if _, err := b.Partitions("missing"); !errors.Is(err, errUnknownTopic) {
		t.Fatalf("missing topic: %v", err)
	}
}

func TestDeleteTopic(t *testing.T) {
	b := newTestBroker(t)
	if err := b.DeleteTopic("in"); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteTopic("in"); !errors.Is(err, errUnknownTopic) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := b.Partitions("in"); !errors.Is(err, errUnknownTopic) {
		t.Fatalf("deleted topic still listed: %v", err)
	}
}

func TestProduceFetchRoundTrip(t *testing.T) {
	b := newTestBroker(t)
	ts := time.Unix(100, 0)
	off, err := b.Produce("in", 1, []Record{{Value: []byte("a"), Timestamp: ts}, {Value: []byte("b"), Timestamp: ts}})
	if err != nil {
		t.Fatal(err)
	}
	if off != 0 {
		t.Fatalf("base offset = %d", off)
	}
	recs, err := b.Fetch("in", 1, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Value) != "a" || string(recs[1].Value) != "b" {
		t.Fatalf("fetched %v", recs)
	}
	if recs[0].Offset != 0 || recs[1].Offset != 1 || recs[0].Partition != 1 {
		t.Fatalf("offsets/partition wrong: %+v", recs)
	}
	if !recs[0].Timestamp.Equal(ts) {
		t.Fatal("CreateTime not preserved")
	}
	if recs[0].AppendTime.IsZero() {
		t.Fatal("AppendTime not stamped")
	}
}

func TestLogAppendTimeUsesBrokerClock(t *testing.T) {
	fake := time.Unix(42, 0)
	b := New(Config{clock: func() time.Time { return fake }})
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Produce("t", 0, []Record{{Value: []byte("x"), Timestamp: time.Unix(1, 0)}}); err != nil {
		t.Fatal(err)
	}
	recs, err := b.Fetch("t", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !recs[0].AppendTime.Equal(fake) {
		t.Fatalf("AppendTime = %v, want broker clock %v", recs[0].AppendTime, fake)
	}
}

func TestFetchBounds(t *testing.T) {
	b := newTestBroker(t)
	if _, err := b.Produce("in", 0, []Record{{Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if recs, err := b.Fetch("in", 0, 1, 5); err != nil || len(recs) != 0 {
		t.Fatalf("fetch at log end: %v, %v", recs, err)
	}
	if _, err := b.Fetch("in", 0, 2, 5); !errors.Is(err, errOffsetOutOfRange) {
		t.Fatalf("past-end fetch: %v", err)
	}
	if _, err := b.Fetch("in", 0, -1, 5); !errors.Is(err, errOffsetOutOfRange) {
		t.Fatalf("negative fetch: %v", err)
	}
	if _, err := b.Fetch("in", 9, 0, 5); !errors.Is(err, errUnknownPartition) {
		t.Fatalf("bad partition: %v", err)
	}
	if _, err := b.Fetch("nope", 0, 0, 5); !errors.Is(err, errUnknownTopic) {
		t.Fatalf("bad topic: %v", err)
	}
}

func TestMaxRequestSize(t *testing.T) {
	b := New(Config{})
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	// Produce neither copies nor reads a value, so the 50 MiB buffers
	// stay untouched pages.
	if _, err := b.Produce("t", 0, []Record{{Value: make([]byte, maxRequestSize+1)}}); !errors.Is(err, errMessageTooLarge) {
		t.Fatalf("oversized produce: %v", err)
	}
	if _, err := b.Produce("t", 0, []Record{{Value: make([]byte, maxRequestSize)}}); err != nil {
		t.Fatalf("max-size produce: %v", err)
	}
}

func TestEndOffset(t *testing.T) {
	b := newTestBroker(t)
	off, err := b.EndOffset("in", 2)
	if err != nil || off != 0 {
		t.Fatalf("empty EndOffset = %d, %v", off, err)
	}
	if _, err := b.Produce("in", 2, []Record{{Value: []byte("a")}, {Value: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	off, err = b.EndOffset("in", 2)
	if err != nil || off != 2 {
		t.Fatalf("EndOffset = %d, %v", off, err)
	}
	if _, err := b.EndOffset("in", 99); !errors.Is(err, errUnknownPartition) {
		t.Fatalf("bad partition: %v", err)
	}
}

// TestClosedBrokerRejectsOps: every Transport op on a closed broker
// answers errClosed, and on a crashed cluster node the retryable
// errNodeDown that the cluster client re-routes on.
func TestClosedBrokerRejectsOps(t *testing.T) {
	tp := TopicPartition{Topic: "in", Partition: 0}
	at := []FetchRequest{{Partition: 0}}
	ops := map[string]func(b Transport) error{
		"CreateTopic": func(b Transport) error { return b.CreateTopic("t2", 1) },
		"DeleteTopic": func(b Transport) error { return b.DeleteTopic("in") },
		"Partitions":  func(b Transport) error { _, err := b.Partitions("in"); return err },
		"Produce": func(b Transport) error {
			_, err := b.Produce("in", 0, []Record{{Value: []byte("x")}})
			return err
		},
		"Fetch":           func(b Transport) error { _, err := b.Fetch("in", 0, 0, 1); return err },
		"FetchMulti":      func(b Transport) error { _, err := b.FetchMulti("in", at, 1); return err },
		"FetchMultiInto":  func(b Transport) error { _, err := b.FetchMultiInto("in", at, 1, nil); return err },
		"Await":           func(b Transport) error { return b.Await("in", at, never, nil) },
		"EndOffset":       func(b Transport) error { _, err := b.EndOffset("in", 0); return err },
		"JoinGroup":       func(b Transport) error { _, err := b.JoinGroup("g", []string{"in"}); return err },
		"LeaveGroup":      func(b Transport) error { return b.LeaveGroup("g", "g-member-0") },
		"FetchAssignment": func(b Transport) error { _, err := b.FetchAssignment("g", "g-member-0", 1); return err },
		"CommitOffset":    func(b Transport) error { return b.CommitOffset("g", tp, 1) },
		"CommittedOffset": func(b Transport) error { _, err := b.CommittedOffset("g", tp); return err },
		"ClusterView":     func(b Transport) error { _, err := b.ClusterView(); return err },
	}
	if n := reflect.TypeOf((*Transport)(nil)).Elem().NumMethod(); len(ops) != n {
		t.Fatalf("the table covers %d ops, Transport has %d", len(ops), n)
	}
	closed := func(t *testing.T) Transport {
		b := newTestBroker(t)
		if _, err := b.JoinGroup("g", []string{"in"}); err != nil {
			t.Fatal(err)
		}
		b.Close()
		return b
	}
	crashed := func(t *testing.T) Transport {
		c := newTestCluster(t, 1, 1)
		if err := c.CreateTopic("in", 4); err != nil {
			t.Fatal(err)
		}
		n, err := c.Node(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.JoinGroup("g", []string{"in"}); err != nil {
			t.Fatal(err)
		}
		n.Crash()
		return n
	}
	names := make([]string, 0, len(ops))
	for name := range ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, tc := range []struct {
		state     string
		shut      func(t *testing.T) Transport
		want      error
		retryable bool
	}{
		{"closed", closed, errClosed, false},
		{"crashed node", crashed, errNodeDown, true},
	} {
		for _, name := range names {
			t.Run(tc.state+"/"+name, func(t *testing.T) {
				err := ops[name](tc.shut(t))
				if !errors.Is(err, tc.want) || resilience.IsRetryable(err) != tc.retryable {
					t.Fatalf("%s on a %s broker = %v, want %v (retryable %v)", name, tc.state, err, tc.want, tc.retryable)
				}
			})
		}
	}
}

func TestOffsetsMonotonicProperty(t *testing.T) {
	// Whatever interleaving of producers runs, fetching the whole log
	// must observe contiguous offsets starting at zero with
	// non-decreasing append times.
	f := func(batchSizes []uint8) bool {
		b := New(Config{})
		if err := b.CreateTopic("t", 1); err != nil {
			return false
		}
		var wg sync.WaitGroup
		total := 0
		for _, bs := range batchSizes {
			n := int(bs)%5 + 1
			total += n
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				recs := make([]Record, n)
				for i := range recs {
					recs[i] = Record{Value: []byte{byte(i)}}
				}
				if _, err := b.Produce("t", 0, recs); err != nil {
					panic(err)
				}
			}(n)
		}
		wg.Wait()
		recs, err := b.Fetch("t", 0, 0, total+1)
		if err != nil || len(recs) != total {
			return false
		}
		for i, r := range recs {
			if r.Offset != int64(i) {
				return false
			}
			if i > 0 && r.AppendTime.Before(recs[i-1].AppendTime) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestProducerRoundRobin(t *testing.T) {
	b := newTestBroker(t)
	p, err := NewProducer(b, "in")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for i := 0; i < 8; i++ {
		part, _, err := p.Send(nil, []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		seen[part]++
	}
	for part := 0; part < 4; part++ {
		if seen[part] != 2 {
			t.Fatalf("partition %d got %d records, want 2 (map %v)", part, seen[part], seen)
		}
	}
}

func TestProducerKeyHashingSticky(t *testing.T) {
	b := newTestBroker(t)
	p, err := NewProducer(b, "in")
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := p.Send([]byte("user-1"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		part, _, err := p.Send([]byte("user-1"), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		if part != first {
			t.Fatalf("key moved partitions: %d then %d", first, part)
		}
	}
}

func TestProducerUnknownTopic(t *testing.T) {
	b := newTestBroker(t)
	if _, err := NewProducer(b, "missing"); !errors.Is(err, errUnknownTopic) {
		t.Fatalf("NewProducer: %v", err)
	}
}

func TestAssignedConsumerPollsAllPartitions(t *testing.T) {
	b := newTestBroker(t)
	p, err := NewProducer(b, "in")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, _, err := p.Send(nil, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewAssignedConsumer(b, "in")
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for i := 0; i < 20 && got < 12; i++ {
		recs, err := c.Poll(5, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got += len(recs)
	}
	if got != 12 {
		t.Fatalf("consumed %d records, want 12", got)
	}
	// Caught up: next poll is empty.
	recs, err := c.Poll(5, 0, nil)
	if err != nil || len(recs) != 0 {
		t.Fatalf("poll after catch-up: %v, %v", recs, err)
	}
}

func TestAssignedConsumerExplicitPartitions(t *testing.T) {
	b := newTestBroker(t)
	if _, err := b.Produce("in", 0, []Record{{Value: []byte("p0")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Produce("in", 3, []Record{{Value: []byte("p3")}}); err != nil {
		t.Fatal(err)
	}
	c, err := NewAssignedConsumer(b, "in", 3)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.Poll(10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Value) != "p3" {
		t.Fatalf("poll = %v", recs)
	}
	if _, err := NewAssignedConsumer(b, "in", 11); !errors.Is(err, errUnknownPartition) {
		t.Fatalf("bad partition: %v", err)
	}
}

func TestConsumerClosedPoll(t *testing.T) {
	b := newTestBroker(t)
	c, err := NewAssignedConsumer(b, "in")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := c.Poll(1, 0, nil); !errors.Is(err, errClosed) {
		t.Fatalf("poll after close: %v", err)
	}
}
