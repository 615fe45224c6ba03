// Package grpcish is the minimal gRPC-analogue RPC substrate the external
// serving frameworks use (§3.4.3 uses gRPC for TensorFlow Serving and
// TorchServe). It provides unary calls over TCP with length-prefixed binary
// frames, per-method dispatch, deadlines, and client-side connection
// pooling. Payloads are opaque bytes; services define their own codecs.
//
// Fault semantics: every transport failure (dial, reset, torn frame,
// deadline) surfaces as a typed errUnavailable marked retryable
// (resilience.IsRetryable); application errors returned by remote
// handlers are plain errors. Calls carry defaultCallTimeout unless
// WithTimeout overrides it, and WithRetry / WithBreaker wire the
// client-side resilience policy into every Call.
package grpcish

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"crayfish/internal/resilience"
)

// maxFrame bounds one RPC frame.
const maxFrame = 96 << 20

// readChunk is the most a frame's length header alone makes a reader
// commit: the body grows as its bytes arrive, doubling from this size,
// so a header that promises more than follows costs at most twice the
// bytes that did arrive. A body of at most readChunk bytes is one exact-size allocation.
const readChunk = 64 << 10

// defaultCallTimeout bounds one Call when WithTimeout is not given: no
// hung daemon may wedge a run (a hang is indistinguishable from a
// crash without a deadline).
const defaultCallTimeout = 30 * time.Second

// errClosed is returned for operations on a closed client or server.
var errClosed = errors.New("grpcish: closed")

// errUnavailable types every transport-level call failure — connection
// reset, torn frame, dial failure, deadline — as distinct from an
// application error returned by the remote handler. errUnavailable
// errors are marked retryable (resilience.IsRetryable).
var errUnavailable = errors.New("grpcish: unavailable")

// Status codes carried in response frames.
const (
	statusOK  = 0
	statusErr = 1
)

// Handler serves one unary method invocation.
type Handler func(req []byte) ([]byte, error)

// Server dispatches RPC frames to registered method handlers.
type Server struct {
	ln net.Listener

	mu       sync.Mutex
	handlers map[string]Handler
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
}

// NewServer creates a server with no registered methods.
func NewServer() *Server {
	return &Server{handlers: make(map[string]Handler), conns: make(map[net.Conn]bool)}
}

// Handle registers a method handler. It must be called before Serve.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// Serve binds addr and accepts connections until Close.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound address; empty before Serve.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and open connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	for {
		method, payload, err := readRequest(br)
		if err != nil {
			return
		}
		s.mu.Lock()
		h := s.handlers[method]
		s.mu.Unlock()
		var resp []byte
		status := byte(statusOK)
		if h == nil {
			status = statusErr
			resp = []byte(fmt.Sprintf("grpcish: unimplemented method %q", method))
		} else if resp, err = h(payload); err != nil {
			status = statusErr
			resp = []byte(err.Error())
		}
		if err := writeResponse(bw, status, resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// request frame: u32 frame length | u16 method length | method | payload.
func writeRequest(w io.Writer, method string, payload []byte) error {
	total := 2 + len(method) + len(payload)
	if total > maxFrame {
		return fmt.Errorf("grpcish: request of %d bytes exceeds frame limit", total)
	}
	hdr := make([]byte, 6+len(method))
	binary.BigEndian.PutUint32(hdr, uint32(total))
	binary.BigEndian.PutUint16(hdr[4:], uint16(len(method)))
	copy(hdr[6:], method)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readRequest(r io.Reader) (string, []byte, error) {
	frame, err := readFrame(r, 2)
	if err != nil {
		return "", nil, err
	}
	mlen := int(binary.BigEndian.Uint16(frame))
	if 2+mlen > len(frame) {
		return "", nil, fmt.Errorf("grpcish: bad method length %d", mlen)
	}
	return string(frame[2 : 2+mlen]), frame[2+mlen:], nil
}

// readFrame reads one length-prefixed frame body of at least least
// bytes, growing it as the bytes arrive rather than trusting the length
// up front.
func readFrame(r io.Reader, least uint32) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total > maxFrame || total < least {
		return nil, fmt.Errorf("grpcish: bad frame length %d", total)
	}
	var frame []byte
	for n := int(total); len(frame) < n; {
		grown := make([]byte, min(n, max(2*len(frame), readChunk)))
		copy(grown, frame)
		if _, err := io.ReadFull(r, grown[len(frame):]); err != nil {
			return nil, err
		}
		frame = grown
	}
	return frame, nil
}

// response frame: u32 length | u8 status | payload.
func writeResponse(w io.Writer, status byte, payload []byte) error {
	total := 1 + len(payload)
	if total > maxFrame {
		return fmt.Errorf("grpcish: response of %d bytes exceeds frame limit", total)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(total))
	hdr[4] = status
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readResponse(r io.Reader) (byte, []byte, error) {
	frame, err := readFrame(r, 1)
	if err != nil {
		return 0, nil, err
	}
	return frame[0], frame[1:], nil
}

// Client issues unary calls to a server, pooling connections so concurrent
// callers proceed in parallel.
type Client struct {
	addr    string
	timeout time.Duration
	retry   *resilience.Retry
	breaker *resilience.Breaker

	mu     sync.Mutex
	idle   []*clientConn
	closed bool
}

type clientConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// DialOption configures a Client.
type DialOption func(*Client)

// WithTimeout sets the per-call deadline (default defaultCallTimeout);
// d ≤ 0 disables deadlines entirely.
func WithTimeout(d time.Duration) DialOption {
	return func(c *Client) { c.timeout = d }
}

// WithRetry retries transport failures (errUnavailable) with the given
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
	c := &Client{addr: addr, timeout: defaultCallTimeout}
	for _, o := range opts {
		o(c)
	}
	conn, err := c.checkout()
	if err != nil {
		return nil, err
	}
	c.checkin(conn)
	return c, nil
}

// Close releases pooled connections.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, cc := range c.idle {
		cc.c.Close()
	}
	c.idle = nil
	return nil
}

func (c *Client) checkout() (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClosed
	}
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, resilience.MarkRetryable(fmt.Errorf("grpcish: dial %s: %w: %w", c.addr, errUnavailable, err))
	}
	return &clientConn{c: conn, br: bufio.NewReaderSize(conn, 64<<10), bw: bufio.NewWriterSize(conn, 64<<10)}, nil
}

// flushIdle drops every pooled connection: after one transport failure
// the rest of the pool points at the same dead peer (e.g. a restarted
// daemon), so the next call must redial rather than inherit a corpse.
func (c *Client) flushIdle() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cc := range idle {
		cc.c.Close()
	}
}

func (c *Client) checkin(cc *clientConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.idle) >= 128 {
		cc.c.Close()
		return
	}
	c.idle = append(c.idle, cc)
}

// Call performs one unary RPC under the client's resilience policy:
// transport failures are typed errUnavailable (retryable) and retried
// when WithRetry is set; WithBreaker sheds calls while the circuit is
// open. An application error returned by the remote handler comes back
// as a plain (non-retryable) error whose message is the handler's — it
// proves the peer is up, so it neither retries nor trips the breaker.
func (c *Client) Call(method string, req []byte) ([]byte, error) {
	var resp []byte
	var appErr error
	err := resilience.Run(c.retry, c.breaker, func() error {
		payload, aerr, terr := c.callOnce(method, req)
		if terr != nil {
			return terr
		}
		resp, appErr = payload, aerr
		return nil
	})
	if err != nil {
		return nil, err
	}
	if appErr != nil {
		return nil, appErr
	}
	return resp, nil
}

// unavailable types err as a retryable transport failure.
func unavailable(stage string, err error) error {
	return resilience.MarkRetryable(fmt.Errorf("grpcish: %s: %w: %w", stage, errUnavailable, err))
}

// callOnce performs one wire round trip, separating application errors
// (the peer answered, second return) from transport faults (the peer is
// unreachable, third return).
func (c *Client) callOnce(method string, req []byte) ([]byte, error, error) {
	if total := 2 + len(method) + len(req); total > maxFrame {
		// Caller bug, not a transport fault: fail before touching a
		// connection so it is neither retried nor counted as unavailable.
		return nil, fmt.Errorf("grpcish: request of %d bytes exceeds frame limit", total), nil
	}
	cc, err := c.checkout()
	if err != nil {
		return nil, nil, err
	}
	if c.timeout > 0 {
		cc.c.SetDeadline(time.Now().Add(c.timeout))
	}
	if err := writeRequest(cc.bw, method, req); err != nil {
		cc.c.Close()
		c.flushIdle()
		return nil, nil, unavailable("write", err)
	}
	if err := cc.bw.Flush(); err != nil {
		cc.c.Close()
		c.flushIdle()
		return nil, nil, unavailable("write", err)
	}
	status, payload, err := readResponse(cc.br)
	if err != nil {
		cc.c.Close()
		c.flushIdle()
		return nil, nil, unavailable("read", err)
	}
	if c.timeout > 0 {
		cc.c.SetDeadline(time.Time{})
	}
	c.checkin(cc)
	if status != statusOK {
		return nil, fmt.Errorf("grpcish: remote error: %s", payload), nil
	}
	return payload, nil, nil
}
