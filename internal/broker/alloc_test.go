package broker

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// TestPollSteadyStateAllocs pins the consumer fetch path's steady-state
// allocation profile: once Poll's reusable request and response buffers
// have warmed up, re-reading a topic through the in-process broker
// (which serves FetchMultiInto), or through the partition-aware client
// of a one-node cluster, which hands the node the consumer's buffer,
// must not allocate at all. A regression here means someone
// re-introduced a per-call slice on the hot path.
func TestPollSteadyStateAllocs(t *testing.T) {
	const parts, perPart = 4, 64
	for via, build := range map[string]func(t *testing.T) Transport{
		"broker": func(*testing.T) Transport { return New(DefaultConfig()) },
		"cluster-client": func(t *testing.T) Transport {
			cl, err := newTestCluster(t, 1, 1).Client(nil)
			if err != nil {
				t.Fatal(err)
			}
			return cl
		},
	} {
		t.Run(via, func(t *testing.T) {
			tr := build(t)
			if err := tr.CreateTopic("t", parts); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < parts; p++ {
				recs := make([]Record, perPart)
				for i := range recs {
					recs[i] = Record{Value: []byte(fmt.Sprintf("p%d-%d", p, i))}
				}
				if _, err := tr.Produce("t", p, recs); err != nil {
					t.Fatal(err)
				}
			}
			c, err := NewAssignedConsumer(tr, "t")
			if err != nil {
				t.Fatal(err)
			}

			drain := func() int {
				total := 0
				for p := 0; p < parts; p++ {
					c.positions[TopicPartition{Topic: "t", Partition: p}] = 0
				}
				for {
					recs, err := c.Poll(128, 0, nil)
					if err != nil {
						t.Fatal(err)
					}
					if len(recs) == 0 {
						return total
					}
					total += len(recs)
				}
			}

			// Warm the reusable buffers, then measure.
			if got := drain(); got != parts*perPart {
				t.Fatalf("warm drain read %d records, want %d", got, parts*perPart)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if got := drain(); got != parts*perPart {
					t.Fatalf("drain read %d records, want %d", got, parts*perPart)
				}
			})
			if allocs > 0 {
				t.Fatalf("steady-state Poll allocated %.1f times per drain, want 0", allocs)
			}
		})
	}
}

// TestRemotePollSteadyStateAllocs is TestPollSteadyStateAllocs over TCP,
// client and server in this one process: a drain allocates once per
// non-empty fetch — the body the fetched records alias — and a poll that
// comes back empty allocates nothing on either side.
func TestRemotePollSteadyStateAllocs(t *testing.T) {
	const parts, perPart, perPoll = 4, 64, 128
	_, rc := startServer(t)
	if err := rc.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		recs := make([]Record, perPart)
		for i := range recs {
			recs[i] = Record{Value: []byte(fmt.Sprintf("p%d-%d", p, i))}
		}
		if _, err := rc.Produce("t", p, recs); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewAssignedConsumer(rc, "t")
	if err != nil {
		t.Fatal(err)
	}
	poll := func() int {
		recs, err := c.Poll(perPoll, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}
	drain := func() {
		for p := 0; p < parts; p++ {
			c.positions[TopicPartition{Topic: "t", Partition: p}] = 0
		}
		total := 0
		for n := poll(); n > 0; n = poll() {
			total += n
		}
		if total != parts*perPart {
			t.Fatalf("drain read %d records, want %d", total, parts*perPart)
		}
	}

	drain() // warm the reusable buffers on both ends
	const fetches = parts * perPart / perPoll
	if allocs := testing.AllocsPerRun(20, drain); allocs > fetches {
		t.Errorf("remote drain of %d non-empty fetches allocated %.1f times, want at most one each", fetches, allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { poll() }); allocs > 0 {
		t.Errorf("empty remote poll allocated %.1f times, want 0", allocs)
	}
}

// cannedPeer accepts one connection and answers the request frames on it
// with the given response frames in turn, over and over, allocating
// nothing per exchange, so that what AllocsPerRun counts is the client's
// alone.
func cannedPeer(t *testing.T, responses ...[]byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		hdr := make([]byte, frameHeader)
		for i := 0; ; i++ {
			if _, err := io.ReadFull(br, hdr); err != nil {
				return
			}
			if _, err := br.Discard(int(binary.BigEndian.Uint32(hdr))); err != nil {
				return
			}
			if _, err := conn.Write(responses[i%len(responses)]); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// stamped returns frame with its length written, as writeFrame sends it.
func stamped(frame []byte) []byte {
	var wire bytes.Buffer
	if err := writeFrame(&wire, frame); err != nil {
		panic(err)
	}
	return wire.Bytes()
}

// TestRemoteProduceAckAllocs: building a produce request in the
// connection's scratch and reading its ack back cost the client no
// allocation.
func TestRemoteProduceAckAllocs(t *testing.T) {
	rc, err := Dial(cannedPeer(t, stamped(appendAckFrame(nil, 42))))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	recs := []Record{{key: []byte("k"), Value: make([]byte, 8<<10), Timestamp: time.Unix(1, 0)}}
	produce := func() {
		if off, err := rc.Produce("t", 0, recs); err != nil || off != 42 {
			t.Fatalf("Produce = %d, %v", off, err)
		}
	}
	produce()
	if allocs := testing.AllocsPerRun(100, produce); allocs > 0 {
		t.Errorf("remote produce allocated %.1f times on the client, want 0", allocs)
	}
}

// TestRemoteParkedPollAllocs: a blocking poll that parks at the broker
// and comes back empty — one await frame, one fetch frame — costs the
// client no allocation, and one with a cancel channel to watch: the go
// statement of the watcher.
func TestRemoteParkedPollAllocs(t *testing.T) {
	empty, ack := stamped(appendRecordsFrame(nil, 0, 0, nil)), stamped(appendAckFrame(nil, 0))
	for name, cancel := range map[string]chan struct{}{"no cancel": nil, "cancel": make(chan struct{})} {
		want := 0.0
		if cancel != nil {
			want = 1
		}
		// The consumer is built by hand: the peer answers fetches and
		// awaits in turn, and nothing else.
		rc, err := Dial(cannedPeer(t, empty, ack))
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		c := &Consumer{t: rc, topic: "t", assigned: []TopicPartition{{Topic: "t"}}, positions: make(map[TopicPartition]int64)}
		poll := func() {
			if recs, err := c.Poll(8, time.Millisecond, cancel); err != nil || len(recs) != 0 {
				t.Fatalf("%s: Poll = %d records, %v", name, len(recs), err)
			}
		}
		poll() // fetch, await, fetch; from here on await, fetch
		poll()
		if allocs := testing.AllocsPerRun(100, poll); allocs > want {
			t.Errorf("%s: a parked remote poll allocated %.1f times on the client, want %.0f", name, allocs, want)
		}
	}
}

// TestProduceWithoutWaitersAllocs: with nobody parked on the topic an
// append arms no signal — no lock, no channel — and Produce allocates
// nothing beyond the log's own growth, which is taken out here.
func TestProduceWithoutWaitersAllocs(t *testing.T) {
	b := New(DefaultConfig())
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	b.topics["t"].parts[0].recs = make([]Record, 0, 1024)
	recs := []Record{{Value: []byte("x")}}
	produce := func() {
		if _, err := b.Produce("t", 0, recs); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, produce); allocs > 0 {
		t.Errorf("Produce with no waiter allocated %.1f times, want 0", allocs)
	}
	// A waiter that came and went leaves the signal armed for one append.
	if _, err := b.AppendSignal("t"); err != nil {
		t.Fatal(err)
	}
	produce()
	if allocs := testing.AllocsPerRun(200, produce); allocs > 0 {
		t.Errorf("Produce after the last waiter left allocated %.1f times, want 0", allocs)
	}
}

// TestOneNodeClusterProduceAllocs: a partition whose ISR is only its
// leader — every partition of a one-node cluster — acks a produce on its
// first check, before any timer or signal is armed, so neither the node
// nor the partition-aware client over it allocates.
func TestOneNodeClusterProduceAllocs(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	cl, err := c.Client(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	node, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	node.topics["t"].parts[0].recs = make([]Record, 0, 1024)
	recs := []Record{{Value: []byte("x")}}
	for _, via := range []struct {
		name string
		tr   Transport
	}{{"node", node}, {"cluster-client", cl}} {
		produce := func() {
			if _, err := via.tr.Produce("t", 0, recs); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(200, produce); allocs > 0 {
			t.Errorf("%s: a one-node cluster produce allocated %.1f times, want 0", via.name, allocs)
		}
	}
}

// TestClusterTopicAdminAllocs: with telemetry off a view push names no
// broker.cluster.leader.* gauge, so creating and deleting a 32-partition
// topic on a one-node cluster pays only for the view's per-partition
// state and the node's partitions: 173 allocations at this writing. New
// builds that same node, so it pays the same. Formatting the leader
// gauges' names on the controller and on the node for every push costs
// 563.
func TestClusterTopicAdminAllocs(t *testing.T) {
	for name, build := range map[string]func(t *testing.T) Transport{
		"New":        func(*testing.T) Transport { return New(DefaultConfig()) },
		"NewCluster": func(t *testing.T) Transport { n, _ := newTestCluster(t, 1, 1).Node(0); return n },
	} {
		t.Run(name, func(t *testing.T) {
			tr := build(t)
			allocs := testing.AllocsPerRun(20, func() {
				if err := tr.CreateTopic("t", 32); err != nil {
					t.Fatal(err)
				}
				if err := tr.DeleteTopic("t"); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 200 {
				t.Errorf("creating and deleting a 32-partition topic allocated %.0f times, want <= 200", allocs)
			}
		})
	}
}
