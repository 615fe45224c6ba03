package broker

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
type untilCancelled struct{ brokerHandler }

func (h untilCancelled) Await(topic string, positions []FetchRequest, _ time.Duration, cancel <-chan struct{}) error {
	return h.Broker.Await(topic, positions, never, cancel)
}

// awaitTransports is a metered broker with a topic "t", reached in
// process and over TCP through a server whose clamp does not apply.
func awaitTransports(t *testing.T) (*Broker, *Server, map[string]Transport) {
	t.Helper()
	b := New(Config{Metrics: telemetry.New()})
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	srv, err := serveHandler(untilCancelled{brokerHandler{b}}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rc, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return b, srv, map[string]Transport{"inproc": b, "tcp": rc}
}

// TestAwaitReturns: Await ends on an append at a watched position, at
// its deadline, on cancel, on the topic's deletion and on the broker's
// close — and at once, without parking, when a record is already there.
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
		}, ErrUnknownTopic},
		{"broker closed", func(b *Broker, _ chan struct{}) { b.Close() }, ErrClosed},
	}
	for _, tc := range cases {
		for _, via := range []string{"inproc", "tcp"} {
			t.Run(tc.name+"/"+via, func(t *testing.T) {
				b, _, transports := awaitTransports(t)
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
				if n := b.mAwaitWait.Count(); via == "inproc" && n != 1 {
					t.Fatalf("%d waits recorded, want 1", n)
				}
			})
		}
	}

	_, _, transports := awaitTransports(t)
	for via, tr := range transports {
		t.Run("gone before the call/"+via, func(t *testing.T) {
			if err := tr.Await("nope", nil, never, nil); !hasErr(err, ErrUnknownTopic) {
				t.Fatalf("Await on a missing topic = %v", err)
			}
			if err := tr.Await("t", []FetchRequest{{Partition: 9}}, never, nil); !hasErr(err, ErrUnknownPartition) {
				t.Fatalf("Await on a missing partition = %v", err)
			}
		})
	}
}

// TestAwaitDeadlineAndReady: the two ends that need no second party.
// These go through a real Serve, whose clamp is above the wait used.
func TestAwaitDeadlineAndReady(t *testing.T) {
	b := New(Config{Metrics: telemetry.New()})
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
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
		// Readable, a position behind the log start included; out of
		// range comes back too, for the fetch to refuse.
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
	if err := <-done; err != nil && !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Await across a server shutdown = %v", err)
	}
}

// TestRemoteCloseEndsCallInFlight: Close closes the connection of a call
// that is parked at the broker, and the caller sees ErrClosed.
func TestRemoteCloseEndsCallInFlight(t *testing.T) {
	b, _, transports := awaitTransports(t)
	rc := transports["tcp"].(*RemoteClient)
	done := make(chan error, 1)
	go func() { done <- rc.Await("t", []FetchRequest{{Partition: 0}}, never, nil) }()
	awaitParked(t, b, 1)
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("a call in flight across Close = %v, want ErrClosed", err)
	}
	if _, err := rc.Partitions("t"); !errors.Is(err, ErrClosed) {
		t.Fatalf("a call after Close = %v, want ErrClosed", err)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.busy) != 0 || len(rc.idle) != 0 {
		t.Fatalf("%d busy and %d idle connections after Close", len(rc.busy), len(rc.idle))
	}
}

// TestRemoteAwaitCancelDropsTheConnection: a cancelled remote await
// returns nil and gives up its connection, which still owes an answer;
// the next call dials a fresh one.
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
	rc.mu.Lock()
	busy, idle := len(rc.busy), len(rc.idle)
	rc.mu.Unlock()
	if busy != 0 || idle != 0 {
		t.Fatalf("%d busy and %d idle connections after a cancelled await, want none", busy, idle)
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

func (c *countingTransport) FetchMulti(topic string, reqs []FetchRequest, maxTotal int) ([]Record, error) {
	c.fetches.Add(1)
	return c.Transport.FetchMulti(topic, reqs, maxTotal)
}

func (c *countingTransport) FetchAssignment(group, memberID string, generation int) (Assignment, error) {
	c.assignments.Add(1)
	return c.Transport.FetchAssignment(group, memberID, generation)
}

// TestIdleConsumerCallsPerWait: an idle group consumer makes three
// transport calls per wait period — one await, one assignment check, one
// fetch — however long the period is, and a record that arrives at a
// parked consumer costs the same three.
func TestIdleConsumerCallsPerWait(t *testing.T) {
	b := New(DefaultConfig())
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	ct := &countingTransport{Transport: b}
	c, err := NewGroupConsumer(ct, "g", "t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const polls = 5
	for i := 0; i < polls; i++ {
		if recs, err := c.Poll(8, 5*time.Millisecond, nil); err != nil || len(recs) != 0 {
			t.Fatalf("idle poll = %d records, %v", len(recs), err)
		}
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
			// No retention cap: its tail copy per append would be the
			// benchmark. Every record shares one value, so the log grows by
			// a Record per round.
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
