package broker

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"crayfish/internal/faults"
	"crayfish/internal/grpcish"
	"crayfish/internal/resilience"
)

// TestServerSurvivesGarbageBytes throws random byte streams at the broker
// TCP server: the server must drop the connection without crashing, and
// keep serving well-formed clients afterwards.
func TestServerSurvivesGarbageBytes(t *testing.T) {
	b := New(DefaultConfig())
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, r.Intn(512)+1)
		r.Read(junk)
		conn.Write(junk)
		conn.Close()
	}
	// An oversized frame header must be rejected, not allocated.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<31)
	conn.Write(hdr[:])
	conn.Close()

	// exchange writes one well-framed request and returns the response
	// frame, or the error the read ended with.
	exchange := func(frame []byte) (byte, []byte, error) {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeFrame(conn, frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		var scratch []byte
		return readFrame(conn, &scratch)
	}

	// A control frame naming no known op must produce an error reply,
	// not a crash.
	tag, payload, err := exchange(append(beginFrame(nil, tagControl), `{"op":"no-such-op"}`...))
	var resp wireResponse
	if err != nil || tag != tagControl || json.Unmarshal(payload, &resp) != nil || resp.Err == "" {
		t.Fatalf("unknown op answered with tag %q, %q, %v; want an error response", tag, payload, err)
	}

	// Well-framed requests with a malformed inside close the connection
	// and cost the server nothing: a control frame that is not JSON, an
	// unknown tag, a produce cut inside a length, a produce and a fetch
	// whose counts promise more than the frame holds, a value length
	// past the end of the frame.
	produce := appendProduceFrame(nil, "post-garbage", 0, []Record{{Value: []byte("value")}})
	hugeCount := binary.AppendUvarint(append(beginFrame(nil, tagProduce), 1, 't', 0), 1<<40)
	hugeCount = append(hugeCount, make([]byte, 2*minRecordWire)...)
	longValue := append([]byte(nil), produce...)
	longValue[len(longValue)-len("value")-1] = 200
	for name, frame := range map[string][]byte{
		"control, not JSON":   append(beginFrame(nil, tagControl), "{op"...),
		"unknown tag":         append(beginFrame(nil, 'Z'), 1, 2, 3),
		"truncated length":    produce[:len(produce)-len("value")-1],
		"record count 2^40":   hugeCount,
		"position count 2^50": binary.AppendUvarint(append(beginFrame(nil, tagFetch), 1, 't', 1), 1<<50),
		"value length 200":    longValue,
	} {
		if tag, payload, err := exchange(frame); err == nil {
			t.Errorf("%s: answered with tag %q, %q; want the connection closed", name, tag, payload)
		}
	}

	// The broker still serves a real client.
	rc, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.CreateTopic("post-garbage", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Produce("post-garbage", 0, []Record{{Value: []byte("ok")}}); err != nil {
		t.Fatal(err)
	}
}

// TestFetchMultiBounds exercises FetchMulti's validation paths.
func TestFetchMultiBounds(t *testing.T) {
	b := New(DefaultConfig())
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Produce("t", 0, []Record{{Value: []byte("a")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Produce("t", 1, []Record{{Value: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	recs, err := b.FetchMulti("t", []FetchRequest{{Partition: 0}, {Partition: 1}}, 10)
	if err != nil || len(recs) != 2 {
		t.Fatalf("FetchMulti = %v, %v", recs, err)
	}
	// maxTotal caps across partitions.
	recs, err = b.FetchMulti("t", []FetchRequest{{Partition: 0}, {Partition: 1}}, 1)
	if err != nil || len(recs) != 1 {
		t.Fatalf("capped FetchMulti = %v, %v", recs, err)
	}
	if _, err := b.FetchMulti("t", []FetchRequest{{Partition: 9}}, 1); err == nil {
		t.Fatal("bad partition accepted")
	}
	if _, err := b.FetchMulti("missing", nil, 1); err == nil {
		t.Fatal("bad topic accepted")
	}
	if _, err := b.FetchMulti("t", []FetchRequest{{Partition: 0, Offset: 99}}, 1); err == nil {
		t.Fatal("out-of-range offset accepted")
	}
	// Empty request list is a legal no-op.
	recs, err = b.FetchMulti("t", nil, 5)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty FetchMulti = %v, %v", recs, err)
	}
}

// TestAsyncProducerLifecycle covers batching, flush, and close semantics.
func TestAsyncProducerLifecycle(t *testing.T) {
	b := New(DefaultConfig())
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	ap, err := NewAsyncProducer(b, "t", 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := ap.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ap.Flush(); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for p := 0; p < 2; p++ {
		end, err := b.EndOffset("t", p)
		if err != nil {
			t.Fatal(err)
		}
		total += end
	}
	if total != 50 {
		t.Fatalf("flushed %d of 50 records", total)
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ap.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := ap.Send([]byte("late")); err == nil {
		t.Fatal("send after close accepted")
	}
}

func TestAsyncProducerSurfacesBrokerErrors(t *testing.T) {
	b := New(DefaultConfig())
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ap, err := NewAsyncProducer(b, "t", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteTopic("t"); err != nil {
		t.Fatal(err)
	}
	if err := ap.Send(make([]byte, 64)); err != nil {
		t.Fatal(err) // enqueue succeeds; failure is asynchronous
	}
	if err := ap.Flush(); !errors.Is(err, errUnknownTopic) {
		t.Fatalf("broker error not surfaced on flush: %v", err)
	}
	if err := ap.Close(); err == nil {
		t.Fatal("broker error not surfaced on close")
	}
}

func TestAsyncProducerUnknownTopic(t *testing.T) {
	b := New(DefaultConfig())
	if _, err := NewAsyncProducer(b, "missing", 4); err == nil {
		t.Fatal("unknown topic accepted")
	}
}

func TestRetentionUnboundedByDefault(t *testing.T) {
	b := New(DefaultConfig())
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := b.Produce("t", 0, []Record{{Value: []byte{1}}}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := b.Fetch("t", 0, 0, 1)
	if err != nil || len(recs) != 1 || recs[0].Offset != 0 {
		t.Fatalf("first record after 100 appends: %+v, %v", recs, err)
	}
}

// TestClientReconnectsAfterBrokerRestart kills the broker's TCP server
// under a retry-enabled client and brings it back on the same address:
// the in-flight call must ride the restart out through the typed
// retryable dial/transport errors.
func TestClientReconnectsAfterBrokerRestart(t *testing.T) {
	b := New(DefaultConfig())
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	rc, err := Dial(addr, WithRetry(&resilience.Retry{
		Attempts:  40,
		BaseDelay: 5 * time.Millisecond,
		MaxDelay:  25 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Produce("t", 0, []Record{{Value: []byte("before")}}); err != nil {
		t.Fatal(err)
	}

	// Restart: close the server, bring it back on the same address a
	// beat later. The broker state (topics, logs) survives — only the
	// transport goes away, as in a rolling broker restart.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	restarted := make(chan *Server, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		srv2, err := Serve(b, addr)
		if err != nil {
			t.Error(err)
			restarted <- nil
			return
		}
		restarted <- srv2
	}()
	if _, err := rc.Produce("t", 0, []Record{{Value: []byte("after")}}); err != nil {
		t.Fatalf("produce across the restart: %v", err)
	}
	srv2 := <-restarted
	if srv2 == nil {
		t.FailNow()
	}
	defer srv2.Close()
	end, err := b.EndOffset("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if end != 2 {
		t.Fatalf("log holds %d records, want 2 (no loss, no duplicate)", end)
	}
}

// TestTornFrameSurfacesTypedRetryableError reads a response through a
// fault proxy that severs the stream mid-frame: the client must surface
// a typed retryable grpcish.ErrUnavailable (a partial read is a transport
// fault), and a retry-enabled client must recover on a fresh
// connection.
func TestTornFrameSurfacesTypedRetryableError(t *testing.T) {
	b := New(DefaultConfig())
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := faults.NewProxy(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Bare client: the torn frame must surface typed, not as a decode
	// error or a hang.
	rc, err := Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	proxy.TearAfter(2) // two bytes of the response length prefix, then cut
	_, err = rc.Produce("t", 0, []Record{{Value: []byte("torn")}})
	if err == nil {
		t.Fatal("torn mid-frame response returned success")
	}
	if !errors.Is(err, grpcish.ErrUnavailable) {
		t.Fatalf("torn frame error = %v, want ErrUnavailable", err)
	}
	if !resilience.IsRetryable(err) {
		t.Fatalf("torn frame error not marked retryable: %v", err)
	}
	_ = rc.Close()

	// Retry-enabled client: same fault, but the second attempt runs on a
	// fresh connection and succeeds.
	rc2, err := Dial(proxy.Addr(), WithRetry(&resilience.Retry{
		Attempts:  5,
		BaseDelay: time.Millisecond,
		MaxDelay:  5 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Close()
	proxy.TearAfter(2)
	if _, err := rc2.Produce("t", 0, []Record{{Value: []byte("retried")}}); err != nil {
		t.Fatalf("retry across torn frame: %v", err)
	}
}
