package broker

import (
	"errors"
	"sync"
	"testing"
	"time"

	"crayfish/internal/grpcish"
	"crayfish/internal/netsim"
	"crayfish/internal/resilience"
)

// startServer runs a broker TCP server for the test's lifetime.
func startServer(t *testing.T) (*Broker, *RemoteClient) {
	t.Helper()
	b := New(DefaultConfig())
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rc, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return b, rc
}

func TestRemoteProduceFetch(t *testing.T) {
	_, rc := startServer(t)
	if err := rc.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	n, err := rc.Partitions("t")
	if err != nil || n != 2 {
		t.Fatalf("Partitions = %d, %v", n, err)
	}
	ts := time.Now().Add(-time.Minute).Truncate(time.Millisecond)
	off, err := rc.Produce("t", 1, []Record{{key: []byte("k"), Value: []byte("hello"), Timestamp: ts}})
	if err != nil || off != 0 {
		t.Fatalf("Produce = %d, %v", off, err)
	}
	recs, err := rc.Fetch("t", 1, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Value) != "hello" || string(recs[0].key) != "k" {
		t.Fatalf("Fetch = %+v", recs)
	}
	if !recs[0].Timestamp.Equal(ts) {
		t.Fatalf("CreateTime lost over the wire: %v != %v", recs[0].Timestamp, ts)
	}
	if recs[0].AppendTime.IsZero() {
		t.Fatal("AppendTime lost over the wire")
	}
	end, err := rc.EndOffset("t", 1)
	if err != nil || end != 1 {
		t.Fatalf("EndOffset = %d, %v", end, err)
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	_, rc := startServer(t)
	if _, err := rc.Fetch("missing", 0, 0, 1); err == nil {
		t.Fatal("fetch from missing topic succeeded")
	}
	if err := rc.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := rc.CreateTopic("t", 1); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if _, err := rc.Fetch("t", 0, 99, 1); err == nil {
		t.Fatal("out-of-range fetch succeeded")
	}
}

func TestRemoteGroupLifecycle(t *testing.T) {
	_, rc := startServer(t)
	if err := rc.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	a1, err := rc.JoinGroup("g", []string{"t"})
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Partitions) != 4 {
		t.Fatalf("assignment %v", a1.Partitions)
	}
	a2, err := rc.JoinGroup("g", []string{"t"})
	if err != nil {
		t.Fatal(err)
	}
	// Stale generation surfaces as errRebalance with the new assignment.
	na1, err := rc.FetchAssignment("g", a1.MemberID, a1.Generation)
	if !errors.Is(err, errRebalance) {
		t.Fatalf("stale fetch: %v", err)
	}
	if len(na1.Partitions)+len(a2.Partitions) != 4 {
		t.Fatalf("split %v + %v", na1.Partitions, a2.Partitions)
	}
	tp := TopicPartition{Topic: "t", Partition: 0}
	if err := rc.CommitOffset("g", tp, 3); err != nil {
		t.Fatal(err)
	}
	off, err := rc.CommittedOffset("g", tp)
	if err != nil || off != 3 {
		t.Fatalf("committed = %d, %v", off, err)
	}
	if err := rc.LeaveGroup("g", a2.MemberID); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteConcurrentClients(t *testing.T) {
	_, rc := startServer(t)
	if err := rc.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := rc.Produce("t", 0, []Record{{Value: []byte("v")}}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	end, err := rc.EndOffset("t", 0)
	if err != nil || end != workers*per {
		t.Fatalf("EndOffset = %d, %v; want %d", end, err, workers*per)
	}
}

func TestRemoteClientThroughProducerConsumer(t *testing.T) {
	// The high-level Producer/Consumer must work unchanged over TCP.
	_, rc := startServer(t)
	if err := rc.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	p, err := NewProducer(rc, "t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, _, err := p.Send(nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewGroupConsumer(rc, "g", "t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := 0
	for i := 0; i < 12 && got < 6; i++ {
		recs, err := c.Poll(4, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got += len(recs)
	}
	if got != 6 {
		t.Fatalf("consumed %d, want 6", got)
	}
}

func TestClosedRemoteClient(t *testing.T) {
	_, rc := startServer(t)
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Partitions("t"); !errors.Is(err, errClosed) {
		t.Fatalf("call after close: %v", err)
	}
}

// TestRemoteOversizedProduce: a produce whose frame would exceed
// grpcish.MaxFrame fails as the broker's errMessageTooLarge, the caller's
// error and not a retryable transport fault; nothing was sent, so the
// same client carries the next request.
func TestRemoteOversizedProduce(t *testing.T) {
	b, rc := startServer(t)
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	value := make([]byte, grpcish.MaxFrame/3+1) // shared: three of these are one byte too many
	_, err := rc.Produce("t", 0, []Record{{Value: value}, {Value: value}, {Value: value}})
	if !errors.Is(err, errMessageTooLarge) || !errors.Is(err, grpcish.ErrFrameTooLarge) || resilience.IsRetryable(err) {
		t.Fatalf("oversized produce: %v (retryable %v)", err, resilience.IsRetryable(err))
	}
	if off, err := rc.Produce("t", 0, []Record{{Value: []byte("small")}}); err != nil || off != 0 {
		t.Fatalf("produce after the oversized one: offset %d, %v; want 0, nil", off, err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("Dial to closed port succeeded")
	}
}

func TestInjectedLatencyDelays(t *testing.T) {
	b := New(Config{Network: netsim.Profile{Latency: 5 * time.Millisecond}})
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := b.Produce("t", 0, []Record{{Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Fetch("t", 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("injected latency not applied: %v", elapsed)
	}
}

// TestRemoteIncompleteResponses: a well-framed join_group response that
// carries no assignment is an error, not a nil dereference.
func TestRemoteIncompleteResponses(t *testing.T) {
	empty, err := appendControlFrame(nil, &wireResponse{})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Dial(cannedPeer(t, stamped(empty)))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if a, err := rc.JoinGroup("g", []string{"t"}); err == nil {
		t.Fatalf("JoinGroup = %+v, want an error for the missing assignment", a)
	}
	if _, err := rc.ClusterView(); err == nil {
		t.Fatal("ClusterView accepted a response without a view")
	}
	// An op answered in binary takes a control response only as its
	// failure: one without an error is a broken peer, not offset 0.
	if off, err := rc.Produce("t", 0, []Record{{Value: []byte("v")}}); !errors.Is(err, grpcish.ErrUnavailable) {
		t.Fatalf("Produce = %d, %v, want ErrUnavailable", off, err)
	}
}
