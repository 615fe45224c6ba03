package grpcish

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"crayfish/internal/resilience"
)

// rudeServer accepts connections, reads one request frame, and slams the
// connection shut mid-call — the connection-reset fault a crashing
// daemon produces.
type rudeServer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu      sync.Mutex
	rudeFor int // reset the first N requests mid-call; then behave
	calls   int
}

// newRudeServer resets the first rudeFor requests mid-call (request
// read, connection closed before the response) and echoes afterwards.
func newRudeServer(t *testing.T, rudeFor int) *rudeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rudeServer{ln: ln, rudeFor: rudeFor}
	s.wg.Add(1)
	go s.loop()
	return s
}

func (s *rudeServer) loop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func(conn net.Conn) {
			defer s.wg.Done()
			defer conn.Close()
			for {
				_, payload, err := readRequest(conn)
				if err != nil {
					return
				}
				s.mu.Lock()
				s.calls++
				rude := s.calls <= s.rudeFor
				s.mu.Unlock()
				if rude {
					return // reset mid-call: request read, no response
				}
				_ = writeResponse(conn, statusOK, payload)
			}
		}(conn)
	}
}

func (s *rudeServer) close() {
	s.ln.Close()
	s.wg.Wait()
}

func TestMidCallResetIsTypedRetryable(t *testing.T) {
	s := newRudeServer(t, 1<<30)
	defer s.close()
	c, err := Dial(s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call("echo", []byte("hi"))
	if err == nil {
		t.Fatal("call over a reset connection succeeded")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("reset not typed ErrUnavailable: %v", err)
	}
	if !resilience.IsRetryable(err) {
		t.Fatalf("reset not retryable: %v", err)
	}
}

func TestWithRetryRidesOutReset(t *testing.T) {
	// The first request is reset mid-call; the retry's second attempt
	// lands on a fresh connection and succeeds.
	s := newRudeServer(t, 1)
	defer s.close()
	c, err := Dial(s.ln.Addr().String(),
		WithRetry(&resilience.Retry{Attempts: 5, BaseDelay: time.Millisecond, Sleep: func(time.Duration) {}}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call("echo", []byte("try again"))
	if err != nil || string(resp) != "try again" {
		t.Fatalf("retried call: %q, %v", resp, err)
	}
}

func TestRemoteErrorIsNotRetried(t *testing.T) {
	srv := NewServer()
	calls := 0
	var mu sync.Mutex
	srv.Handle("fail", func(req []byte) ([]byte, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return nil, errors.New("application refused")
	})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(),
		WithRetry(&resilience.Retry{Attempts: 5, BaseDelay: time.Millisecond, Sleep: func(time.Duration) {}}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call("fail", nil)
	if err == nil {
		t.Fatal("expected remote error")
	}
	if resilience.IsRetryable(err) || errors.Is(err, ErrUnavailable) {
		t.Fatalf("application error mistyped as transport fault: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("application error retried %d times", calls)
	}
}

func TestBreakerShedsAfterSustainedFailure(t *testing.T) {
	s := newRudeServer(t, 1<<30)
	b := &resilience.Breaker{FailureThreshold: 3, Cooldown: time.Hour}
	c, err := Dial(s.ln.Addr().String(), WithBreaker(b))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Call("echo", nil); err == nil {
			t.Fatal("call against rude server succeeded")
		}
	}
	if b.State() != resilience.Open {
		t.Fatalf("breaker = %v after sustained failure, want open", b.State())
	}
	// Shut the server entirely: the shed call must fail fast on
	// resilience.ErrOpen without touching the network.
	s.close()
	_, err = c.Call("echo", nil)
	if !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("shed call error = %v, want ErrOpen", err)
	}
}

func TestDefaultCallDeadline(t *testing.T) {
	// A server that accepts and never responds: the default deadline
	// must eventually fail the call. Shrink it via WithTimeout to keep
	// the test quick, but prove Dial installs a deadline by default by
	// checking the zero-option client's configured timeout.
	c0 := &Client{timeout: DefaultCallTimeout}
	if c0.timeout <= 0 {
		t.Fatal("no default deadline")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				_, _ = io.Copy(io.Discard, conn) // read forever, answer never
			}(conn)
		}
	}()
	defer wg.Wait()
	defer ln.Close()
	c, err := Dial(ln.Addr().String(), WithTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Call("hang", nil)
	if err == nil {
		t.Fatal("hung call returned")
	}
	if !errors.Is(err, ErrUnavailable) || !resilience.IsRetryable(err) {
		t.Fatalf("deadline error not typed/retryable: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v", elapsed)
	}
}

func TestOversizedRequestNotRetried(t *testing.T) {
	srv := NewServer()
	srv.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	attempts := 0
	c, err := Dial(srv.Addr(), WithRetry(&resilience.Retry{
		Attempts: 4, BaseDelay: time.Millisecond,
		Sleep:     func(time.Duration) {},
		OnAttempt: func(int, error) { attempts++ },
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, MaxFrame+1)
	binary.BigEndian.PutUint32(big, 0) // touch it so the alloc is real
	_, err = c.Call("echo", big)
	if err == nil {
		t.Fatal("oversized request accepted")
	}
	if errors.Is(err, ErrUnavailable) || resilience.IsRetryable(err) {
		t.Fatalf("caller bug typed as transport fault: %v", err)
	}
	if attempts != 0 {
		t.Fatalf("caller bug retried %d times", attempts)
	}
}
