package broker

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crayfish/internal/grpcish"
	"crayfish/internal/telemetry"
)

// never is a wait no test outlives: an Await given it returns for the
// reason under test or not at all, so no assertion here compares clocks.
const never = time.Hour

// awaitParked blocks until n awaits have parked at b.
func awaitParked(t *testing.T, b *Broker, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); b.mAwaitParked.Value() < n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d awaits parked, want %d", b.mAwaitParked.Value(), n)
		}
	}
}

// hasErr matches an error in process and across the wire, where an
// untyped one arrives as its text.
func hasErr(err, want error) bool {
	return errors.Is(err, want) || (err != nil && strings.Contains(err.Error(), want.Error()))
}

// untilCancelled serves a broker whose awaits ignore their wait, so that
// a parked 'W' frame ends only by the server's shutdown or by the topic
// or broker going away.
type untilCancelled struct{ *Broker }

func (h untilCancelled) Await(topic string, positions []FetchRequest, _ time.Duration, cancel <-chan struct{}) error {
	return h.Broker.Await(topic, positions, never, cancel)
}

// dialServed serves h on a loopback port and dials it.
func dialServed(t *testing.T, h requestHandler) (*Server, *RemoteClient) {
	t.Helper()
	srv, err := serveHandler(h, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rc, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return srv, rc
}

// awaitTransports is a metered broker with a topic "t", reached in
// process and over TCP through a server whose clamp does not apply.
func awaitTransports(t *testing.T) (*Broker, *Server, map[string]Transport) {
	t.Helper()
	b := New(Config{Metrics: telemetry.New()})
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	srv, rc := dialServed(t, untilCancelled{b})
	return b, srv, map[string]Transport{"inproc": b, "tcp": rc}
}

// awaitCluster is a metered cluster of n nodes at replication factor rf
// with a replicated topic "t" of two partitions, and its node 0, which
// leads partition 0 — and partition 1 too when n is 1. Tests drive the
// controller by hand.
func awaitCluster(t *testing.T, n, rf int) (*Cluster, *Broker) {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Nodes:             n,
		ReplicationFactor: rf,
		Broker:            Config{Metrics: telemetry.New()},
		AckTimeout:        300 * time.Millisecond,
		HeartbeatEvery:    time.Hour,
		ReplicaPoll:       200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	node, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	return c, node
}

// TestAwaitReturns: Await ends on an append at a watched position, at
// its deadline, on cancel, on the topic's deletion, on the broker's
// close, on losing the leadership and on a crash — and at once, without
// parking, when a record is already there. A record counts once the
// high-watermark covers it. The node New builds ("inproc", "tcp") and
// node 0 of a one-node NewCluster ("node", "node-tcp") are the same
// node, reached in process and over TCP.
func TestAwaitReturns(t *testing.T) {
	at := []FetchRequest{{Partition: 0, Offset: 0}, {Partition: 1, Offset: 0}}
	cases := []struct {
		name string
		end  func(b *Broker, cancel chan struct{})
		want error
	}{
		{"append", func(b *Broker, _ chan struct{}) {
			if _, err := b.Produce("t", 1, []Record{{Value: []byte("x")}}); err != nil {
				panic(err)
			}
		}, nil},
		{"cancel", func(_ *Broker, cancel chan struct{}) { close(cancel) }, nil},
		{"topic deleted", func(b *Broker, _ chan struct{}) {
			if err := b.DeleteTopic("t"); err != nil {
				panic(err)
			}
		}, errUnknownTopic},
		{"broker closed", func(b *Broker, _ chan struct{}) { b.Close() }, errClosed},
		{"leadership lost", func(b *Broker, _ chan struct{}) {
			v, err := b.ClusterView()
			if err != nil {
				panic(err)
			}
			v = editedView(v, 1, TopicPartition{Topic: "t", Partition: 1}, func(st *PartitionState) {
				st.Leader, st.Epoch = -1, st.Epoch+1
			})
			if err := b.PushView(v); err != nil {
				panic(err)
			}
		}, nil},
		{"crash", func(b *Broker, _ chan struct{}) { b.Crash() }, errNodeDown},
	}
	for _, tc := range cases {
		for _, via := range []string{"inproc", "tcp", "node", "node-tcp"} {
			t.Run(tc.name+"/"+via, func(t *testing.T) {
				var b *Broker
				var transports map[string]Transport
				if strings.HasPrefix(via, "node") {
					_, b = awaitCluster(t, 1, 1)
					_, rc := dialServed(t, untilCancelled{b})
					transports = map[string]Transport{"node": b, "node-tcp": rc}
				} else {
					b, _, transports = awaitTransports(t)
				}
				cancel := make(chan struct{})
				done := make(chan error, 1)
				go func() { done <- transports[via].Await("t", at, never, cancel) }()
				awaitParked(t, b, 1)
				select {
				case err := <-done:
					t.Fatalf("Await returned %v with nothing to return for", err)
				default:
				}
				tc.end(b, cancel)
				if err := <-done; (tc.want == nil && err != nil) || (tc.want != nil && !hasErr(err, tc.want)) {
					t.Fatalf("Await = %v, want %v", err, tc.want)
				}
				if n := b.mAwaitTimeouts.Value(); n != 0 {
					t.Fatalf("%d timeouts counted", n)
				}
				if n := b.mAwaitWait.Count(); (via == "inproc" || via == "node") && n != 1 {
					t.Fatalf("%d waits recorded, want 1", n)
				}
			})
		}
	}

	_, _, transports := awaitTransports(t)
	_, node := awaitCluster(t, 1, 1)
	_, rc := dialServed(t, untilCancelled{node})
	transports["node"], transports["node-tcp"] = node, rc
	for via, tr := range transports {
		t.Run("gone before the call/"+via, func(t *testing.T) {
			if err := tr.Await("nope", nil, never, nil); !hasErr(err, errUnknownTopic) {
				t.Fatalf("Await on a missing topic = %v", err)
			}
			if err := tr.Await("t", []FetchRequest{{Partition: 9}}, never, nil); !hasErr(err, errUnknownPartition) {
				t.Fatalf("Await on a missing partition = %v", err)
			}
		})
	}
}

// TestAwaitDeadlineAndReady: the two ends that need no second party, on
// a standalone broker and on the leader of replicated partitions. These
// go through a real Serve, whose clamp is above the wait used.
func TestAwaitDeadlineAndReady(t *testing.T) {
	standalone := func(t *testing.T) *Broker {
		b := New(Config{Metrics: telemetry.New()})
		if err := b.CreateTopic("t", 2); err != nil {
			t.Fatal(err)
		}
		return b
	}
	node := func(t *testing.T) *Broker {
		_, n := awaitCluster(t, 1, 1)
		return n
	}
	for name, build := range map[string]func(t *testing.T) *Broker{"standalone": standalone, "node": node} {
		t.Run(name, func(t *testing.T) {
			b := build(t)
			srv, err := Serve(b, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			rc, err := Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			at := []FetchRequest{{Partition: 0, Offset: 0}, {Partition: 1, Offset: 0}}
			const wait = 20 * time.Millisecond
			for i, tr := range []Transport{b, rc} {
				start := time.Now()
				if err := tr.Await("t", at, wait, nil); err != nil {
					t.Fatal(err)
				}
				if took := time.Since(start); took < wait {
					t.Fatalf("an Await of %v on an empty topic returned after %v", wait, took)
				}
				if parked, timeouts := b.mAwaitParked.Value(), b.mAwaitTimeouts.Value(); parked != int64(i+1) || timeouts != int64(i+1) {
					t.Fatalf("parked %d timeouts %d after %d timed-out awaits", parked, timeouts, i+1)
				}
			}
			if _, err := b.Produce("t", 1, []Record{{Value: []byte("x")}}); err != nil {
				t.Fatal(err)
			}
			for _, tr := range []Transport{b, rc} {
				// Readable, a position behind the log start included; out
				// of range comes back too, for the fetch to refuse.
				for _, pos := range []FetchRequest{{Partition: 1, Offset: 0}, {Partition: 1, Offset: 5}, {Partition: 0, Offset: -1}} {
					if err := tr.Await("t", []FetchRequest{pos}, never, nil); err != nil {
						t.Fatal(err)
					}
				}
				// wait == 0 asks for nothing.
				if err := tr.Await("t", at[:1], 0, nil); err != nil {
					t.Fatal(err)
				}
			}
			if parked := b.mAwaitParked.Value(); parked != 2 {
				t.Fatalf("awaits with something to read parked: %d in all, want the 2 from before", parked)
			}
		})
	}
}

// TestAwaitIgnoresUnackedAppend: at a leader whose followers are down
// but still in the ISR (no controller tick), an append the
// high-watermark does not cover wakes a parked Await, which checks,
// finds nothing a consumer may read, and parks again until its wait
// runs out.
func TestAwaitIgnoresUnackedAppend(t *testing.T) {
	for _, via := range []string{"node", "node-tcp"} {
		t.Run(via, func(t *testing.T) {
			c, n := awaitCluster(t, 3, 3)
			_, rc := dialServed(t, n)
			tr := map[string]Transport{"node": n, "node-tcp": rc}[via]
			for _, name := range []string{"node-1", "node-2"} {
				if err := c.crash(name); err != nil {
					t.Fatal(err)
				}
			}
			const wait = 200 * time.Millisecond
			done := make(chan error, 1)
			start := time.Now()
			go func() { done <- tr.Await("t", []FetchRequest{{Partition: 0}}, wait, nil) }()
			awaitParked(t, n, 1)
			produced := make(chan error, 1)
			go func() {
				_, err := n.Produce("t", 0, []Record{{Value: []byte("unacked")}})
				produced <- err
			}()
			waitUntil(t, 2*time.Second, func() bool {
				end, err := n.LogEnd(TopicPartition{Topic: "t", Partition: 0})
				return err == nil && end == 1
			}, "the unacked append to land")
			if err := <-done; err != nil {
				t.Fatalf("Await across an unacked append = %v", err)
			}
			if took := time.Since(start); took < wait {
				t.Fatalf("an unacked append ended a %v wait after %v", wait, took)
			}
			if err := <-produced; !errors.Is(err, errAckTimeout) {
				t.Fatalf("produce with its followers down = %v, want an ack timeout", err)
			}
		})
	}
}

// TestServerCloseWakesParkedAwait: Close returns with a 'W' frame
// parked on a connection — the handler's cancel is the server's
// shutdown, or this test never ends.
func TestServerCloseWakesParkedAwait(t *testing.T) {
	b, srv, transports := awaitTransports(t)
	done := make(chan error, 1)
	go func() { done <- transports["tcp"].Await("t", []FetchRequest{{Partition: 0}}, never, nil) }()
	awaitParked(t, b, 1)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The client may read the answer of the woken handler or the closed
	// connection, whichever the shutdown got to first; it must not hang.
	if err := <-done; err != nil && !errors.Is(err, grpcish.ErrUnavailable) {
		t.Fatalf("Await across a server shutdown = %v", err)
	}
}

// TestRemoteCloseEndsCallInFlight: Close closes the connection of a call
// that is parked at the broker, and the caller sees errClosed. (That the
// pool keeps no connection after it is grpcish's TestCloseEndsCallInFlight.)
func TestRemoteCloseEndsCallInFlight(t *testing.T) {
	b, _, transports := awaitTransports(t)
	rc := transports["tcp"].(*RemoteClient)
	done := make(chan error, 1)
	go func() { done <- rc.Await("t", []FetchRequest{{Partition: 0}}, never, nil) }()
	awaitParked(t, b, 1)
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, errClosed) {
		t.Fatalf("a call in flight across Close = %v, want ErrClosed", err)
	}
	if _, err := rc.Partitions("t"); !errors.Is(err, errClosed) {
		t.Fatalf("a call after Close = %v, want ErrClosed", err)
	}
}

// TestRemoteAwaitCancelDropsTheConnection: a cancelled remote await
// returns nil and gives up its connection, which still owes an answer;
// the next call dials a fresh one. (That the pool keeps no connection
// after it is grpcish's TestCancelDropsTheConnection.)
func TestRemoteAwaitCancelDropsTheConnection(t *testing.T) {
	b, _, transports := awaitTransports(t)
	rc := transports["tcp"].(*RemoteClient)
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- rc.Await("t", []FetchRequest{{Partition: 0}}, never, cancel) }()
	awaitParked(t, b, 1)
	close(cancel)
	if err := <-done; err != nil {
		t.Fatalf("cancelled Await = %v", err)
	}
	if n, err := rc.Partitions("t"); err != nil || n != 2 {
		t.Fatalf("Partitions after a cancelled await = %d, %v", n, err)
	}
}

// TestPollNeverLosesAWakeUp is a ping-pong of single-record appends
// against a consumer parked in Poll: the wait is one no run reaches, so
// an empty poll is a lost wake-up. Run it with -race.
func TestPollNeverLosesAWakeUp(t *testing.T) {
	for via, rounds := range map[string]int{"inproc": 10000, "tcp": 2000} {
		t.Run(via, func(t *testing.T) {
			b, _, transports := awaitTransports(t)
			c, err := NewAssignedConsumer(transports[via], "t")
			if err != nil {
				t.Fatal(err)
			}
			got := make(chan int64)
			go func() {
				defer close(got)
				for i := 0; i < rounds; i++ {
					recs, err := c.Poll(1, never, nil)
					if err != nil || len(recs) != 1 {
						t.Errorf("poll %d: %d records, %v", i, len(recs), err)
						return
					}
					got <- recs[0].Offset
				}
			}()
			for i := 0; i < rounds; i++ {
				if _, err := b.Produce("t", i%2, []Record{{Value: []byte("x")}}); err != nil {
					t.Fatal(err)
				}
				if off, ok := <-got; !ok || off != int64(i/2) {
					t.Fatalf("round %d: offset %d (delivered %v)", i, off, ok)
				}
			}
		})
	}
}

// countingTransport counts the calls a consumer makes.
type countingTransport struct {
	Transport
	awaits, fetches, assignments atomic.Int64
}

func (c *countingTransport) Await(topic string, positions []FetchRequest, wait time.Duration, cancel <-chan struct{}) error {
	c.awaits.Add(1)
	return c.Transport.Await(topic, positions, wait, cancel)
}

func (c *countingTransport) FetchMultiInto(topic string, reqs []FetchRequest, maxTotal int, out []Record) ([]Record, error) {
	c.fetches.Add(1)
	return c.Transport.FetchMultiInto(topic, reqs, maxTotal, out)
}

func (c *countingTransport) FetchAssignment(group, memberID string, generation int) (Assignment, error) {
	c.assignments.Add(1)
	return c.Transport.FetchAssignment(group, memberID, generation)
}

// TestIdleConsumerCallsPerWait: an idle group consumer makes three
// transport calls per wait period — one await, one assignment check, one
// fetch — however long the period is, and a record that arrives at a
// parked consumer costs the same three. That holds on a standalone
// broker and at the leader of replicated partitions, in process, over
// TCP and through the partition-aware client of a one-node cluster.
func TestIdleConsumerCallsPerWait(t *testing.T) {
	for _, via := range []string{"standalone", "node", "node-tcp", "cluster-client"} {
		t.Run(via, func(t *testing.T) {
			var b *Broker
			var c *Cluster
			if via == "standalone" {
				b = New(DefaultConfig())
				if err := b.CreateTopic("t", 2); err != nil {
					t.Fatal(err)
				}
			} else {
				c, b = awaitCluster(t, 1, 1)
			}
			var tr Transport = b
			switch via {
			case "node-tcp":
				_, tr = dialServed(t, b)
			case "cluster-client":
				cl, err := c.Client(nil)
				if err != nil {
					t.Fatal(err)
				}
				tr = cl
			}
			idleCallsPerWait(t, b, tr)
		})
	}
}

func idleCallsPerWait(t *testing.T, b *Broker, tr Transport) {
	ct := &countingTransport{Transport: tr}
	c, err := NewGroupConsumer(ct, "g", "t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const polls = 5
	const wait = 5 * time.Millisecond
	start := time.Now()
	for i := 0; i < polls; i++ {
		if recs, err := c.Poll(8, wait, nil); err != nil || len(recs) != 0 {
			t.Fatalf("idle poll = %d records, %v", len(recs), err)
		}
	}
	if took := time.Since(start); took < polls*wait {
		t.Fatalf("%d idle polls of %v each took %v: an await returned before its wait", polls, wait, took)
	}
	// The first poll fetches before it parks: one assignment check and
	// one fetch more than the rest.
	if a, f, g := ct.awaits.Load(), ct.fetches.Load(), ct.assignments.Load(); a != polls || f != polls+1 || g != polls+1 {
		t.Fatalf("%d idle polls made %d awaits, %d fetches, %d assignment checks", polls, a, f, g)
	}
	go func() {
		if _, err := b.Produce("t", 0, []Record{{Value: []byte("x")}}); err != nil {
			t.Error(err)
		}
	}()
	if recs, err := c.Poll(8, never, nil); err != nil || len(recs) != 1 {
		t.Fatalf("poll across an append = %d records, %v", len(recs), err)
	}
	if a, f, g := ct.awaits.Load(), ct.fetches.Load(), ct.assignments.Load(); a != polls+1 || f != polls+2 || g != polls+2 {
		t.Fatalf("one more record made it %d awaits, %d fetches, %d assignment checks", a, f, g)
	}
	// A non-blocking poll never awaits.
	if _, err := c.Poll(8, 0, nil); err != nil || ct.awaits.Load() != polls+1 {
		t.Fatalf("Poll with no wait: %v, %d awaits", err, ct.awaits.Load())
	}
}

// BenchmarkPollWake is the time from an append to the parked consumer
// holding the record, one record at a time (booked as
// poll_wake_us_inproc and poll_wake_us_tcp).
func BenchmarkPollWake(b *testing.B) {
	for _, via := range []string{"inproc", "tcp"} {
		b.Run(via, func(b *testing.B) {
			// Every record shares one value, so the log grows by a Record
			// per round.
			br := New(DefaultConfig())
			srv, err := Serve(br, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			rc, err := Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer rc.Close()
			if err := br.CreateTopic("t", 1); err != nil {
				b.Fatal(err)
			}
			c, err := NewAssignedConsumer(map[string]Transport{"inproc": br, "tcp": rc}[via], "t")
			if err != nil {
				b.Fatal(err)
			}
			got := make(chan struct{})
			go func() {
				defer close(got)
				for i := 0; i < b.N; i++ {
					if recs, err := c.Poll(1, never, nil); err != nil || len(recs) != 1 {
						b.Errorf("poll %d: %d records, %v", i, len(recs), err)
						return
					}
					got <- struct{}{}
				}
			}()
			recs := []Record{{Value: make([]byte, 8400)}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := br.Produce("t", 0, recs); err != nil {
					b.Fatal(err)
				}
				if _, ok := <-got; !ok {
					b.FailNow()
				}
			}
		})
	}
}

// TestClusterClientAwaitMultiLeader: positions led by two nodes. The
// client parks at one leader for at most a millisecond, so an idle
// consumer does not spin (a node answers at once for a partition it
// does not lead, so a client that handed it the other leader's position
// would), and a record reaches Poll within a few re-polls whichever
// leader the consumer is parked at: its first position, and so the
// leader it parks at, alternates from poll to poll.
func TestClusterClientAwaitMultiLeader(t *testing.T) {
	c, _ := awaitCluster(t, 3, 3)
	if l0, l1 := c.View().Partitions["t"][0].Leader, c.View().Partitions["t"][1].Leader; l0 != 0 || l1 != 1 {
		t.Fatalf("leaders %d and %d, want 0 and 1", l0, l1)
	}
	cl, err := c.Client(nil)
	if err != nil {
		t.Fatal(err)
	}
	ct := &countingTransport{Transport: cl}
	cons, err := NewAssignedConsumer(ct, "t")
	if err != nil {
		t.Fatal(err)
	}
	const idle = 20 * time.Millisecond
	for start := time.Now(); time.Since(start) < idle; {
		if recs, err := cons.Poll(8, FetchMaxWait, nil); err != nil || len(recs) != 0 {
			t.Fatalf("idle poll = %d records, %v", len(recs), err)
		}
	}
	if a := ct.awaits.Load(); a > 30 {
		t.Fatalf("an idle consumer made %d awaits in %v", a, idle)
	}

	got := make(chan time.Time, 1)
	stop := make(chan struct{})
	done := make(chan struct{})
	defer func() { close(stop); <-done }()
	go func() {
		defer close(done)
		for {
			recs, err := cons.Poll(8, FetchMaxWait, stop)
			select {
			case <-stop:
				return
			default:
			}
			if err != nil || len(recs) > 0 {
				if err != nil || len(recs) != 1 {
					t.Errorf("poll = %d records, %v", len(recs), err)
				}
				got <- time.Now()
				return
			}
		}
	}()
	idleAwaits := ct.awaits.Load()
	waitUntil(t, 2*time.Second, func() bool { return ct.awaits.Load() > idleAwaits+2 }, "the consumer to park")
	n1, err := c.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Produce("t", 1, []Record{{Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	acked := time.Now()
	if took := (<-got).Sub(acked); took > 5*time.Millisecond {
		t.Fatalf("a record at node 1 took %v to reach a consumer parked at one of two leaders", took)
	}
}
