package grpcish

import (
	"bytes"
	"errors"
	"fmt"
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
	if _, err := c.Call("echo", nil); !errors.Is(err, errClosed) {
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
