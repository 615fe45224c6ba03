package grpcish

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func startEcho(t *testing.T) (*Server, *Client) {
	t.Helper()
	s := NewServer()
	s.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	s.Handle("fail", func(req []byte) ([]byte, error) { return nil, errors.New("boom") })
	s.Handle("slow", func(req []byte) ([]byte, error) {
		time.Sleep(50 * time.Millisecond)
		return req, nil
	})
	if err := s.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestUnaryCall(t *testing.T) {
	_, c := startEcho(t)
	resp, err := c.Call("echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("hello")) {
		t.Fatalf("resp = %q", resp)
	}
	// Empty payloads are legal.
	resp, err = c.Call("echo", nil)
	if err != nil || len(resp) != 0 {
		t.Fatalf("empty call: %q, %v", resp, err)
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	_, c := startEcho(t)
	_, err := c.Call("fail", []byte("x"))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	// The connection survives an application error.
	if _, err := c.Call("echo", []byte("y")); err != nil {
		t.Fatalf("call after error: %v", err)
	}
}

func TestUnimplementedMethod(t *testing.T) {
	_, c := startEcho(t)
	_, err := c.Call("nope", nil)
	if err == nil || !strings.Contains(err.Error(), "unimplemented") {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, c := startEcho(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("worker-%d", w))
			for i := 0; i < 30; i++ {
				resp, err := c.Call("echo", payload)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp, payload) {
					errs <- fmt.Errorf("cross-talk: %q != %q", resp, payload)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCallTimeout(t *testing.T) {
	s := NewServer()
	s.Handle("slow", func(req []byte) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return req, nil
	})
	if err := s.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), WithTimeout(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("slow", []byte("x")); err == nil {
		t.Fatal("deadline not enforced")
	}
}

func TestClosedClient(t *testing.T) {
	_, c := startEcho(t)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close: %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("Dial to dead port succeeded")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s, c := startEcho(t)
	done := make(chan error, 1)
	go func() {
		_, err := c.Call("slow", []byte("x"))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Log("in-flight call completed before close; acceptable")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("client blocked after server close")
	}
}

func TestLargePayload(t *testing.T) {
	_, c := startEcho(t)
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i)
	}
	resp, err := c.Call("echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, big) {
		t.Fatal("large payload corrupted")
	}
}

// readRequest, readResponse, writeRequest and writeResponse speak one
// frame of the protocol over a plain stream, the way the server and the
// client do over a connection.
func readRequest(r io.Reader) (string, []byte, error) {
	var scratch []byte
	body, err := ReadFrame(r, &scratch, keepAll)
	if err != nil {
		return "", nil, err
	}
	method, payload, err := parseRequest(body)
	return string(method), payload, err
}

func readResponse(r io.Reader) (byte, []byte, error) {
	var scratch []byte
	body, err := ReadFrame(r, &scratch, keepAll)
	if err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

func writeRequest(w io.Writer, method string, payload []byte) error {
	return WriteFrame(w, appendRequest(nil, method, payload))
}

func writeResponse(w io.Writer, status byte, payload []byte) error {
	return WriteFrame(w, appendResponse(nil, status, payload))
}

// parkedServer serves a "park" method whose handler blocks until the
// test ends, and reports each call as it parks.
func parkedServer(t *testing.T) (addr string, parked <-chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	calls := make(chan struct{}, 16)
	s := NewServer()
	s.Handle("park", func(req []byte) ([]byte, error) {
		calls <- struct{}{}
		<-release
		return req, nil
	})
	if err := s.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(release)
		s.Close()
	})
	return s.Addr(), calls
}

// TestCloseEndsCallInFlight: Close closes the connection of a call that
// is parked in its handler, and the caller sees ErrClosed at once, not
// the handler's answer whenever it comes.
func TestCloseEndsCallInFlight(t *testing.T) {
	addr, parked := parkedServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Call("park", []byte("x"))
		done <- err
	}()
	<-parked
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("a call in flight across Close = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a call in flight outlived Close by a second")
	}
	if _, err := c.Call("park", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("a call after Close = %v, want ErrClosed", err)
	}
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	if len(c.pool.busy) != 0 || len(c.pool.idle) != 0 {
		t.Fatalf("%d busy and %d idle connections after Close", len(c.pool.busy), len(c.pool.idle))
	}
}

// TestCancelDropsTheConnection: an exchange whose cancel closes while
// the server sits on it returns nil without its answer and gives up its
// connection, which still owes that answer; the next exchange dials a
// fresh one.
func TestCancelDropsTheConnection(t *testing.T) {
	addr, parked := parkedServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cancel := make(chan struct{})
	done := make(chan error, 1)
	decoded := false
	go func() {
		done <- c.pool.RoundTrip(
			func(b []byte) []byte { return appendRequest(b, "park", nil) },
			func([]byte) error { decoded = true; return nil },
			time.Hour, cancel)
	}()
	<-parked
	close(cancel)
	if err := <-done; err != nil || decoded {
		t.Fatalf("cancelled exchange = %v, decoded %v; want nil and no answer", err, decoded)
	}
	c.pool.mu.Lock()
	busy, idle := len(c.pool.busy), len(c.pool.idle)
	c.pool.mu.Unlock()
	if busy != 0 || idle != 0 {
		t.Fatalf("%d busy and %d idle connections after a cancelled exchange, want none", busy, idle)
	}
	if _, err := c.Call("nope", nil); err == nil || !strings.Contains(err.Error(), "unimplemented") {
		t.Fatalf("call after a cancelled exchange = %v", err)
	}
}

// TestCallAllocs pins what one echo call costs client and server
// together, both in this process, once the connections' scratch has
// warmed up: at most the 7 allocations it cost with a stack of each
// protocol's own. Each side keeps one body: the server the request its
// handler owns, the client the response its caller owns.
func TestCallAllocs(t *testing.T) {
	_, c := startEcho(t)
	for _, size := range []int{64, 12500, 50000} {
		req := make([]byte, size)
		call := func() {
			if resp, err := c.Call("echo", req); err != nil || len(resp) != size {
				t.Fatalf("echo of %d bytes: %d bytes, %v", size, len(resp), err)
			}
		}
		call()
		if allocs := testing.AllocsPerRun(200, call); allocs > 7 {
			t.Errorf("echo call of %d bytes allocated %.1f times, want at most 7", size, allocs)
		}
	}
}
