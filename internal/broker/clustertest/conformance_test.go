package clustertest

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"crayfish/internal/broker"
	"crayfish/internal/faults"
	"crayfish/internal/resilience"
)

// wireCluster is a 3-node cluster whose every link — controller pings,
// view pushes, replica fetches, client traffic — crosses real TCP.
type wireCluster struct {
	nodes   []*broker.Broker
	servers []*broker.Server
	ctrl    *broker.Controller
	closers []func()
}

func (w *wireCluster) close() {
	w.ctrl.Close()
	for _, n := range w.nodes {
		n.Close()
	}
	for _, s := range w.servers {
		s.Close()
	}
	for _, c := range w.closers {
		c()
	}
}

// dialPeer opens an inter-node link with no retry policy: pings must
// fail fast so the controller sees a death, and replica fetchers ride
// errors out with their own idle poll — transport errors surface
// directly.
func dialPeer(t *testing.T, addr string) *broker.RemoteClient {
	t.Helper()
	rc, err := broker.Dial(addr, broker.WithCallTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// newWireCluster stands up N served nodes wired to each other through
// RemoteClients, at brokerd's node defaults, with the controller (heartbeat disabled; tests call
// Tick) also reaching every node over the wire.
func newWireCluster(t *testing.T, n, rf int) *wireCluster {
	t.Helper()
	w := &wireCluster{}
	// Heartbeat disabled: tests drive Tick directly.
	cfg := broker.ClusterConfig{Nodes: n, ReplicationFactor: rf, HeartbeatEvery: time.Hour}
	for id := 0; id < n; id++ {
		node := cfg.NewNode(id)
		srv, err := broker.Serve(node, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w.nodes = append(w.nodes, node)
		w.servers = append(w.servers, srv)
	}
	peers := make(map[int]broker.ClusterPeer, n)
	for id, srv := range w.servers {
		rc := dialPeer(t, srv.Addr())
		w.closers = append(w.closers, func() { rc.Close() })
		peers[id] = rc
	}
	for id, node := range w.nodes {
		for pid, p := range peers {
			if pid != id {
				node.SetPeer(pid, p)
			}
		}
	}
	ctrl, err := cfg.Seat(w.nodes[0], peers)
	if err != nil {
		t.Fatal(err)
	}
	w.ctrl = ctrl
	ctrl.Start()
	t.Cleanup(w.close)
	return w
}

// client dials every node (optionally through per-node proxies) and
// builds the partition-aware cluster client over the wire links.
func (w *wireCluster) client(t *testing.T, addrs []string) *broker.ClusterClient {
	t.Helper()
	links := make([]broker.Transport, len(addrs))
	for i, addr := range addrs {
		rc, err := broker.Dial(addr, broker.WithCallTimeout(2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		w.closers = append(w.closers, func() { rc.Close() })
		links[i] = rc
	}
	cl, err := broker.NewClusterClient(links, &resilience.Retry{
		BaseDelay:  500 * time.Microsecond,
		MaxDelay:   5 * time.Millisecond,
		MaxElapsed: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func (w *wireCluster) addrs() []string {
	out := make([]string, len(w.servers))
	for i, s := range w.servers {
		out[i] = s.Addr()
	}
	return out
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

func fetchValues(t *testing.T, cl *broker.ClusterClient, topic string, partition int) map[string]bool {
	t.Helper()
	got := make(map[string]bool)
	var off int64
	for {
		recs, err := cl.Fetch(topic, partition, off, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			return got
		}
		for _, r := range recs {
			got[string(r.Value)] = true
			off = r.Offset + 1
		}
	}
}

// TestClusterConformanceTCPFailover reruns the leader-kill durability
// contract with every hop on real TCP: replica fetches, view pushes,
// controller pings, and client produces all cross the wire, the leader
// dies mid-stream, and zero acked records may be lost.
func TestClusterConformanceTCPFailover(t *testing.T) {
	w := newWireCluster(t, 3, 3)
	if err := w.ctrl.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	cl := w.client(t, w.addrs())

	// Partition 1 leads on node 1 (round-robin placement) — killing it
	// moves data-plane leadership without touching the coordinator seat.
	const total = 40
	acked := make(map[string]bool, total)
	var ackedN atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			v := fmt.Sprintf("rec-%03d", i)
			if _, err := cl.Produce("t", 1, []broker.Record{{Value: []byte(v)}}); err != nil {
				done <- fmt.Errorf("produce %d: %w", i, err)
				return
			}
			acked[v] = true // producer goroutine only; read after <-done
			ackedN.Add(1)
		}
		done <- nil
	}()
	waitUntil(t, 2*time.Second, func() bool { return ackedN.Load() >= 8 }, "8 acks before the kill")
	w.nodes[1].Crash()
	w.ctrl.Tick()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st, _ := w.ctrl.View().State(broker.TopicPartition{Topic: "t", Partition: 1})
	if st.Leader == 1 || st.Leader < 0 || st.Epoch < 2 {
		t.Fatalf("failover did not complete: %+v", st)
	}
	var got map[string]bool
	waitUntil(t, 2*time.Second, func() bool {
		got = fetchValues(t, cl, "t", 1)
		for v := range acked {
			if !got[v] {
				return false
			}
		}
		return true
	}, "all acked records visible after TCP failover")

	// Bring the deposed leader back: re-admission runs over the wire
	// (admit_follower frames to the new leader) and must land only after
	// the returner's replica fetches cover the high-watermark.
	w.nodes[1].Restart()
	waitUntil(t, 2*time.Second, func() bool {
		w.ctrl.Tick()
		st, _ := w.ctrl.View().State(broker.TopicPartition{Topic: "t", Partition: 1})
		return contains(st.ISR, 1)
	}, "returner re-admitted to ISR over the wire")
	lead, err := w.nodes[st.Leader].LogEnd(broker.TopicPartition{Topic: "t", Partition: 1})
	if err != nil {
		t.Fatal(err)
	}
	if end, err := w.nodes[1].LogEnd(broker.TopicPartition{Topic: "t", Partition: 1}); err != nil || end != lead {
		t.Fatalf("re-admitted replica log end = (%d, %v), want leader's %d", end, err, lead)
	}
}

// contains reports membership in a small id slice.
func contains(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// TestClusterConformanceTornFrames points the client's link to the
// partition leader through a torn-frame proxy and severs responses
// mid-stream, repeatedly: the client must surface each tear as a typed
// retryable fault, retry, and lose nothing it acked. Duplicates are
// allowed (at-least-once); loss is not.
func TestClusterConformanceTornFrames(t *testing.T) {
	w := newWireCluster(t, 3, 3)
	if err := w.ctrl.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	// Partition 0 leads on node 0: proxy that link only.
	proxy, err := faults.NewProxy(w.servers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	w.closers = append(w.closers, func() { proxy.Close() })
	addrs := w.addrs()
	addrs[0] = proxy.Addr()
	cl := w.client(t, addrs)

	acked := make(map[string]bool)
	for i := 0; i < 30; i++ {
		if i%5 == 2 {
			// Tear the next response a few bytes in: the produce may or
			// may not have committed — exactly the ambiguity the retry
			// path must resolve toward at-least-once.
			proxy.TearAfter(3)
		}
		v := fmt.Sprintf("torn-%03d", i)
		if _, err := cl.Produce("t", 0, []broker.Record{{Value: []byte(v)}}); err != nil {
			t.Fatalf("produce %d across torn frames: %v", i, err)
		}
		acked[v] = true
	}
	got := fetchValues(t, cl, "t", 0)
	for v := range acked {
		if !got[v] {
			t.Fatalf("acked record %q lost to a torn frame", v)
		}
	}
}

// TestClusterConformanceNotLeaderOverWire pins the error-typing
// contract of the wire protocol: a misrouted produce must come back as
// a NotLeaderError that still satisfies errors.Is/As and stays
// retryable after a JSON round trip — that is what lets the cluster
// client re-route instead of failing.
func TestClusterConformanceNotLeaderOverWire(t *testing.T) {
	w := newWireCluster(t, 3, 3)
	if err := w.ctrl.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	// Dial node 1 directly — a follower for partition 0 — bypassing the
	// cluster client's routing.
	rc := dialPeer(t, w.servers[1].Addr())
	defer rc.Close()
	_, perr := rc.Produce("t", 0, []broker.Record{{Value: []byte("misrouted")}})
	if perr == nil {
		t.Fatal("follower accepted a produce")
	}
	var nl *broker.NotLeaderError
	if !errors.As(perr, &nl) || !errors.Is(perr, broker.ErrNotLeader) {
		t.Fatalf("wire error lost its type: %v", perr)
	}
	if nl.Leader != 0 {
		t.Fatalf("re-route hint = %d, want 0", nl.Leader)
	}
	if !resilience.IsRetryable(perr) {
		t.Fatal("NotLeader must stay retryable across the wire")
	}
}

// TestClusterConformanceGroupOverWire checks consumer-group handover
// across a broker death with every call on TCP: committed offsets
// survive the generation bump and no offset is consumed twice.
func TestClusterConformanceGroupOverWire(t *testing.T) {
	w := newWireCluster(t, 3, 3)
	if err := w.ctrl.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	cl := w.client(t, w.addrs())
	for p := 0; p < 2; p++ {
		for i := 0; i < 10; i++ {
			if _, err := cl.Produce("t", p, []broker.Record{{Value: []byte(fmt.Sprintf("p%d-%02d", p, i))}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cons, err := broker.NewGroupConsumer(cl, "g", "t")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	seen := make(map[string]int)
	drain := func() {
		t.Helper()
		for polls := 0; polls < 100; polls++ {
			recs, err := cons.Poll(8, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				return
			}
			for _, r := range recs {
				seen[fmt.Sprintf("%d/%d", r.Partition, r.Offset)]++
			}
			if err := cons.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain()
	w.nodes[2].Crash()
	w.ctrl.Tick()
	for p := 0; p < 2; p++ {
		if _, err := cl.Produce("t", p, []broker.Record{{Value: []byte(fmt.Sprintf("p%d-late", p))}}); err != nil {
			t.Fatal(err)
		}
	}
	drain()
	if len(seen) != 22 {
		t.Fatalf("consumed %d offsets, want 22", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("offset %s consumed %d times across the rebalance", k, n)
		}
	}
}

// TestClusterFaultLogReplay proves the failover chaos machinery is
// replayable: the same fault plan bound to two fresh clusters produces
// byte-identical fault logs and the same node-liveness trajectory.
func TestClusterFaultLogReplay(t *testing.T) {
	plan := faults.Plan{
		Seed: 7,
		Events: []faults.Event{
			{At: 2 * time.Millisecond, Kind: faults.BrokerCrash, Target: "node-1", Duration: 10 * time.Millisecond},
		},
	}
	run := func() string {
		c, err := broker.NewCluster(broker.ClusterConfig{
			Nodes:             3,
			ReplicationFactor: 3,
			HeartbeatEvery:    time.Hour,
			ReplicaPoll:       200 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		inj, err := faults.New(plan)
		if err != nil {
			t.Fatal(err)
		}
		c.Bind(inj)
		inj.Start()
		n1, err := c.Node(1)
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, 2*time.Second, func() bool { return n1.Ping() != nil }, "planned crash to land")
		waitUntil(t, 2*time.Second, func() bool { return n1.Ping() == nil }, "planned restart to land")
		inj.Stop()
		return faults.FormatLog(inj.Log())
	}
	first := run()
	second := run()
	if first != second {
		t.Fatalf("fault logs differ across identical runs:\n--- first\n%s\n--- second\n%s", first, second)
	}
	if first == "" {
		t.Fatal("empty fault log")
	}
}
