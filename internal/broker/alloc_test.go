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
// (which serves FetchMultiInto) must not allocate at all. A regression
// here means someone re-introduced a per-call slice on the hot path.
func TestPollSteadyStateAllocs(t *testing.T) {
	const parts, perPart = 4, 64
	b := New(DefaultConfig())
	if err := b.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		recs := make([]Record, perPart)
		for i := range recs {
			recs[i] = Record{Value: []byte(fmt.Sprintf("p%d-%d", p, i))}
		}
		if _, err := b.Produce("t", p, recs); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewAssignedConsumer(b, "t")
	if err != nil {
		t.Fatal(err)
	}

	drain := func() int {
		total := 0
		for p := 0; p < parts; p++ {
			c.Seek(TopicPartition{Topic: "t", Partition: p}, 0)
		}
		for {
			recs, err := c.Poll(128)
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
		recs, err := c.Poll(perPoll)
		if err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}
	drain := func() {
		for p := 0; p < parts; p++ {
			c.Seek(TopicPartition{Topic: "t", Partition: p}, 0)
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

// cannedPeer accepts one connection and answers every request frame on
// it with the same response frame, allocating nothing per exchange, so
// that what AllocsPerRun counts is the client's alone.
func cannedPeer(t *testing.T, response []byte) string {
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
		for {
			if _, err := io.ReadFull(br, hdr); err != nil {
				return
			}
			if _, err := br.Discard(int(binary.BigEndian.Uint32(hdr))); err != nil {
				return
			}
			if _, err := conn.Write(response); err != nil {
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
	recs := []Record{{Key: []byte("k"), Value: make([]byte, 8<<10), Timestamp: time.Unix(1, 0)}}
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

// TestRemotePollWaitReusesItsTimer: an idle remote consumer's PollWait
// re-polls about once a millisecond; what it allocates must not grow
// with the number of re-polls (its two timers, not one per empty poll).
func TestRemotePollWaitReusesItsTimer(t *testing.T) {
	_, rc := startServer(t)
	if err := rc.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	c, err := NewAssignedConsumer(rc, "t")
	if err != nil {
		t.Fatal(err)
	}
	wait := func() {
		if recs, err := c.PollWait(8, 20*time.Millisecond); err != nil || len(recs) != 0 {
			t.Fatalf("PollWait = %d records, %v", len(recs), err)
		}
	}
	wait()
	if allocs := testing.AllocsPerRun(5, wait); allocs > 8 {
		t.Errorf("a 20 ms idle PollWait allocated %.1f times, want a constant few", allocs)
	}
}
