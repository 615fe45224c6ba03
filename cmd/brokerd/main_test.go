package main

import (
	"net"
	"sync"
	"testing"

	"crayfish/internal/broker"
	"crayfish/internal/telemetry"
	"crayfish/internal/testutil/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

func TestParseTopics(t *testing.T) {
	specs, err := parseTopics("in:4, out:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0] != (topicSpec{"in", 4}) || specs[1] != (topicSpec{"out", 2}) {
		t.Fatalf("specs %+v", specs)
	}
	if specs, err := parseTopics(""); err != nil || specs != nil {
		t.Fatalf("empty flag: %v %v", specs, err)
	}
	for _, bad := range []string{"in", "in:0", "in:-1", "in:x"} {
		if _, err := parseTopics(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestParsePeers(t *testing.T) {
	addrs, err := parsePeers("127.0.0.1:9092, 127.0.0.1:9093", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs[1] != "127.0.0.1:9093" {
		t.Fatalf("addrs %v", addrs)
	}
	// One node is a cluster: brokerd's -peers defaults to -addr alone.
	if addrs, err := parsePeers("127.0.0.1:9092", 0); err != nil || len(addrs) != 1 {
		t.Fatalf("one peer: %v, %v", addrs, err)
	}
	for _, bad := range []struct {
		peers string
		id    int
	}{
		{"", 0},                               // missing list
		{"127.0.0.1:9092", 1},                 // id past a one-node list
		{"127.0.0.1:9092,nonsense", 0},        // unparsable address
		{"127.0.0.1:9092,127.0.0.1:9093", 2},  // id past the list
		{"127.0.0.1:9092,127.0.0.1:9093", -1}, // negative id
	} {
		if _, err := parsePeers(bad.peers, bad.id); err == nil {
			t.Fatalf("peers=%q id=%d accepted", bad.peers, bad.id)
		}
	}
}

// reservePorts grabs n ephemeral listen addresses and frees them for the
// cluster to rebind — members must know each other's ports up front, so
// :0 placeholders cannot appear in the shared peer list.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestStartClusterSmoke boots the full three-process wiring in one
// process: every member runs startCluster concurrently (processes start
// in any order — the peer-wait dial loop absorbs that), node 0 creates a
// replicated topic, and a partition-aware client must see acked produces
// come back through the high-watermark gate. Each node's own registry
// must report per-partition leadership — including the followers', which
// is what /metrics serves per node.
func TestStartClusterSmoke(t *testing.T) {
	addrs := reservePorts(t, 3)
	regs := make([]*telemetry.Registry, 3)
	nodes := make([]*clusterNode, 3)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for id := 0; id < 3; id++ {
		regs[id] = telemetry.New()
		var topics []topicSpec
		if id == 0 {
			topics = []topicSpec{{"t", 2}}
		}
		wg.Add(1)
		go func(id int, topics []topicSpec) {
			defer wg.Done()
			nodes[id], errs[id] = startCluster(id, addrs, 3, topics, regs[id])
		}(id, topics)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
	}
	defer func() {
		for _, cn := range nodes {
			cn.Close()
		}
	}()

	links := make([]broker.Transport, 3)
	for i, a := range addrs {
		rc, err := broker.Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		links[i] = rc
	}
	cl, err := broker.NewClusterClient(links, nil)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if _, err := cl.Produce("t", p, []broker.Record{{Value: []byte("v")}}); err != nil {
			t.Fatalf("produce p%d: %v", p, err)
		}
		recs, err := cl.Fetch("t", p, 0, 10)
		if err != nil {
			t.Fatalf("fetch p%d: %v", p, err)
		}
		if len(recs) != 1 {
			t.Fatalf("p%d: %d records past the high-watermark, want 1", p, len(recs))
		}
	}

	// Leadership is round-robin over the node ids, so partition p's
	// leader is node p — and every member's registry must agree.
	for id, reg := range regs {
		snap := reg.Snapshot()
		for p := 0; p < 2; p++ {
			key := "broker.cluster.leader.t-" + string(rune('0'+p))
			leader, ok := snap.Gauges[key]
			if !ok {
				t.Fatalf("node %d registry missing %s", id, key)
			}
			if leader != int64(p) {
				t.Fatalf("node %d reports leader %d for partition %d", id, leader, p)
			}
		}
	}
	if _, ok := regs[0].Snapshot().Counters["broker.cluster.failovers"]; !ok {
		t.Fatal("controller registry missing broker.cluster.failovers")
	}
}

// TestStartClusterOneNode: brokerd without -peers is the one-node case of
// startCluster, and it serves a plain RemoteClient — topic admin,
// produce, fetch and the consumer-group ops — as the standalone broker
// it replaced did.
func TestStartClusterOneNode(t *testing.T) {
	addrs := reservePorts(t, 1)
	reg := telemetry.New()
	cn, err := startCluster(0, addrs, 3, []topicSpec{{"in", 2}}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	rc, err := broker.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if n, err := rc.Partitions("in"); err != nil || n != 2 {
		t.Fatalf("bootstrap topic: %d partitions, %v", n, err)
	}
	if err := rc.CreateTopic("out", 1); err != nil {
		t.Fatalf("create topic: %v", err)
	}
	if off, err := rc.Produce("in", 1, []broker.Record{{Value: []byte("a")}, {Value: []byte("b")}}); err != nil || off != 0 {
		t.Fatalf("produce = %d, %v", off, err)
	}
	recs, err := rc.Fetch("in", 1, 0, 10)
	if err != nil || len(recs) != 2 || string(recs[1].Value) != "b" {
		t.Fatalf("fetch = %d records, %v", len(recs), err)
	}

	a, err := rc.JoinGroup("g", []string{"in"})
	if err != nil {
		t.Fatalf("join group: %v", err)
	}
	if len(a.Partitions) != 2 {
		t.Fatalf("assignment %+v, want both partitions", a)
	}
	tp := broker.TopicPartition{Topic: "in", Partition: 1}
	if err := rc.CommitOffset("g", tp, 2); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if off, err := rc.CommittedOffset("g", tp); err != nil || off != 2 {
		t.Fatalf("committed offset = %d, %v", off, err)
	}
	if err := rc.LeaveGroup("g", a.MemberID); err != nil {
		t.Fatalf("leave group: %v", err)
	}
	if err := rc.DeleteTopic("out"); err != nil {
		t.Fatalf("delete topic: %v", err)
	}
	if _, ok := reg.Snapshot().Gauges["broker.cluster.leader.in-1"]; !ok {
		t.Fatal("registry missing broker.cluster.leader.in-1")
	}
}
