// Package grpcish is the module's one TCP substrate — a Listener, a
// client connection Pool and one length-prefixed frame reader and writer,
// which the broker's wire protocol runs on too — and the minimal
// gRPC-analogue RPC protocol the external serving frameworks speak on it
// (§3.4.3 uses gRPC for TensorFlow Serving and TorchServe): unary calls
// with per-method dispatch and deadlines, carrying opaque payloads whose
// codecs the services define.
//
//	request  body = u16 method length | method | payload
//	response body = u8 status | payload   (status 1: payload is the error text)
//
// Fault semantics: every transport failure (dial, reset, torn frame,
// deadline) surfaces as a typed ErrUnavailable marked retryable
// (resilience.IsRetryable); application errors returned by remote
// handlers are plain errors. Calls carry DefaultCallTimeout unless
// WithTimeout overrides it, and WithRetry / WithBreaker wire the
// client-side resilience policy into every Call.
package grpcish

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"crayfish/internal/resilience"
)

// Status codes carried in response frames.
const (
	statusOK  = 0
	statusErr = 1
)

// Handler serves one unary method invocation. The request is the
// handler's to keep, or to return as its response.
type Handler func(req []byte) ([]byte, error)

// Server dispatches RPC frames to registered method handlers.
type Server struct {
	handlers map[string]Handler
	ln       *Listener
}

// NewServer creates a server with no registered methods.
func NewServer() *Server {
	return &Server{handlers: make(map[string]Handler)}
}

// Handle registers a method handler. It must be called before Serve:
// connections read the handler table without a lock.
func (s *Server) Handle(method string, h Handler) { s.handlers[method] = h }

// Serve binds addr and accepts connections until Close.
func (s *Server) Serve(addr string) (err error) {
	s.ln, err = Listen(addr, s.serve)
	return err
}

// Addr returns the bound address; empty before Serve.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr()
}

// Close stops the listener and open connections.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	return s.ln.Close()
}

// serve answers the requests of one connection, building each response
// frame in the connection's scratch.
func (s *Server) serve(conn net.Conn, br *bufio.Reader, _ <-chan struct{}) {
	var buf []byte
	for {
		body, err := ReadFrame(br, &buf, keepAll)
		if err != nil {
			return
		}
		method, req, err := parseRequest(body)
		if err != nil {
			return
		}
		h := s.handlers[string(method)]
		status, resp := byte(statusOK), []byte(nil)
		if h == nil {
			status, resp = statusErr, []byte(fmt.Sprintf("grpcish: unimplemented method %q", method))
		} else if resp, err = h(req); err != nil {
			status, resp = statusErr, []byte(err.Error())
		}
		buf = appendResponse(buf, status, resp)
		if err := WriteFrame(conn, buf); err != nil {
			return
		}
	}
}

// keepAll gives every body a buffer of its own: a request is its
// handler's, a response its caller's.
func keepAll(int, byte) bool { return true }

// appendRequest builds a request frame in b: u16 method length | method |
// payload.
func appendRequest(b []byte, method string, payload []byte) []byte {
	b = binary.BigEndian.AppendUint16(BeginFrame(b), uint16(len(method)))
	return append(append(b, method...), payload...)
}

// parseRequest splits a request body into its method and payload, both
// slices of the body.
func parseRequest(body []byte) (method, payload []byte, err error) {
	if len(body) < 2 {
		return nil, nil, fmt.Errorf("grpcish: request of %d bytes", len(body))
	}
	n := 2 + int(binary.BigEndian.Uint16(body))
	if n > len(body) {
		return nil, nil, fmt.Errorf("grpcish: bad method length %d", n-2)
	}
	return body[2:n], body[n:], nil
}

// appendResponse builds a response frame in b: u8 status | payload.
func appendResponse(b []byte, status byte, payload []byte) []byte {
	return append(append(BeginFrame(b), status), payload...)
}

// Client issues unary calls to a server, pooling connections so concurrent
// callers proceed in parallel.
type Client struct {
	pool    *Pool
	timeout time.Duration
	retry   *resilience.Retry
	breaker *resilience.Breaker
}

// DialOption configures a Client.
type DialOption func(*Client)

// WithTimeout sets the per-call deadline (default DefaultCallTimeout),
// which bounds the dial too; d ≤ 0 disables deadlines entirely.
func WithTimeout(d time.Duration) DialOption {
	return func(c *Client) { c.timeout = d }
}

// WithRetry retries transport failures (ErrUnavailable) with the given
// policy; application errors are never retried.
func WithRetry(r *resilience.Retry) DialOption {
	return func(c *Client) { c.retry = r }
}

// WithBreaker guards every Call with the circuit breaker: failed calls
// count toward opening it, and shed calls fail fast with a retryable
// resilience.ErrOpen.
func WithBreaker(b *resilience.Breaker) DialOption {
	return func(c *Client) { c.breaker = b }
}

// Dial connects to addr, validating connectivity eagerly.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	c := &Client{timeout: DefaultCallTimeout}
	for _, o := range opts {
		o(c)
	}
	pool, err := DialPool(addr, c.timeout, keepAll)
	if err != nil {
		return nil, err
	}
	c.pool = pool
	return c, nil
}

// Close releases the connections, those of calls in flight included:
// such a call returns ErrClosed.
func (c *Client) Close() error { return c.pool.Close() }

// Call performs one unary RPC under the client's resilience policy:
// transport failures are typed ErrUnavailable (retryable) and retried
// when WithRetry is set; WithBreaker sheds calls while the circuit is
// open. An application error returned by the remote handler comes back
// as a plain (non-retryable) error whose message is the handler's — it
// proves the peer is up, so it neither retries nor trips the breaker.
// The response is the caller's to keep.
func (c *Client) Call(method string, req []byte) ([]byte, error) {
	if total := 2 + len(method) + len(req); total > MaxFrame {
		// Caller bug, not a transport fault: fail before touching a
		// connection so it is neither retried nor counted as unavailable.
		return nil, fmt.Errorf("grpcish: request of %d bytes exceeds frame limit", total)
	}
	var status byte
	var resp []byte
	err := resilience.Run(c.retry, c.breaker, func() error {
		return c.pool.RoundTrip(
			func(b []byte) []byte { return appendRequest(b, method, req) },
			func(body []byte) error {
				status, resp = body[0], body[1:]
				return nil
			}, 0, nil)
	})
	if err != nil {
		return nil, err
	}
	if status != statusOK {
		return nil, fmt.Errorf("grpcish: remote error: %s", resp)
	}
	return resp, nil
}
